//! Problem detectors (§IV-B): BGP timer gaps, consecutive packet
//! losses, peer-group blocking, and the zero-window-probe bug.

use std::net::Ipv4Addr;

use tdat_timeset::{Micros, Span, SpanSet};

use crate::series::SeriesSet;

/// An inferred sender pacing timer (§IV-B "BGP timer gaps", Fig. 17).
#[derive(Debug, Clone, PartialEq)]
pub struct InferredTimer {
    /// The inferred timer period — the knee of the sorted gap-length
    /// curve.
    pub period: Micros,
    /// Number of idle gaps attributed to the timer (within ±50% of the
    /// knee).
    pub gap_count: usize,
    /// Total delay those gaps contributed.
    pub total_delay: Micros,
}

/// Detects a repetitive sender timer from the `SendAppLimited` series.
///
/// If a table transfer is paced by an implementation timer, the sorted
/// gap-length curve has a knee at the timer value. The knee is located
/// with the L-method of Salvador & Chan \[27\]: the split point whose
/// two-segment least-squares fit minimizes total residual error. A
/// timer is reported only when enough gaps (≥ `min_gaps`) cluster near
/// the knee.
pub fn infer_timer(series: &SeriesSet, min_gaps: usize) -> Option<InferredTimer> {
    let mut gaps: Vec<i64> = series
        .send_app_limited()
        .durations()
        .map(|d| d.as_micros())
        .filter(|&d| d > 0)
        .collect();
    if gaps.len() < min_gaps.max(4) {
        return None;
    }
    gaps.sort_unstable();
    let knee_idx = l_method_knee(&gaps)?;
    // The knee splits the sorted curve into two segments; the
    // repetitive timer plateau is whichever side clusters more tightly
    // around its median. (Depending on how many sub-timer gaps exist,
    // the plateau may sit on either side of the knee.) A degenerate
    // knee at either end of the curve leaves one side empty; only
    // non-empty sides contribute a median candidate.
    let (below, above) = gaps.split_at(knee_idx.min(gaps.len()));
    let candidates: Vec<i64> = [below, above]
        .into_iter()
        .filter(|side| !side.is_empty())
        .map(|side| side[side.len() / 2])
        .collect();
    let cluster_around = |center: i64| -> Vec<i64> {
        let lo = center - center / 4;
        let hi = center + center / 4;
        gaps.iter()
            .copied()
            .filter(|&g| g >= lo && g <= hi)
            .collect()
    };
    let cluster = candidates
        .into_iter()
        .map(cluster_around)
        .max_by_key(Vec::len)?;
    // A timer must explain a dominant share of the idle gaps.
    if cluster.len() < min_gaps || cluster.len() * 5 < gaps.len() * 2 {
        return None;
    }
    let period = Micros(cluster[cluster.len() / 2]);
    Some(InferredTimer {
        period,
        gap_count: cluster.len(),
        total_delay: Micros(cluster.iter().sum()),
    })
}

/// L-method knee detection: for each candidate split of the sorted
/// curve `y[0..n]`, fit a line to each side and pick the split with the
/// lowest length-weighted RMSE sum. Returns the index of the knee.
fn l_method_knee(sorted: &[i64]) -> Option<usize> {
    let n = sorted.len();
    if n < 4 {
        return None;
    }
    let mut best: Option<(f64, usize)> = None;
    for split in 2..n - 1 {
        let left = fit_rmse(&sorted[..split], 0);
        let right = fit_rmse(&sorted[split..], split);
        let score = (split as f64 / n as f64) * left + ((n - split) as f64 / n as f64) * right;
        if best.is_none_or(|(b, _)| score < b) {
            best = Some((score, split));
        }
    }
    best.map(|(_, idx)| idx)
}

/// RMSE of the least-squares line through `(x0 + i, y[i])`.
fn fit_rmse(y: &[i64], x0: usize) -> f64 {
    let n = y.len() as f64;
    if y.len() < 2 {
        return 0.0;
    }
    let xs: Vec<f64> = (0..y.len()).map(|i| (x0 + i) as f64).collect();
    let ys: Vec<f64> = y.iter().map(|&v| v as f64).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let intercept = my - slope * mx;
    let sse: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| {
            let e = y - (slope * x + intercept);
            e * e
        })
        .sum();
    (sse / n).sqrt()
}

/// A detected consecutive-loss problem (§IV-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsecutiveLosses {
    /// The episode's time extent.
    pub span: Span,
    /// Retransmission waves in the episode.
    pub retransmissions: usize,
}

/// Maximum silence between retransmissions chained into one
/// consecutive-loss episode.
const EPISODE_GAP: Micros = Micros::from_secs(2);

const _: () = assert!(EPISODE_GAP.as_micros() > 0);

/// Finds episodes of at least `threshold` consecutive retransmissions
/// in the union of all loss series, a retransmission chaining into the
/// episode before it when it starts at most 2 s after that episode
/// ends. The paper's default threshold is 8 — enough losses to
/// collapse cwnd and ssthresh to their minimum.
pub fn find_consecutive_losses(series: &SeriesSet, threshold: usize) -> Vec<ConsecutiveLosses> {
    // Collect every loss-recovery wave (unflattened: one per event).
    let mut waves: Vec<Span> = series
        .upstream_loss()
        .iter()
        .chain(series.downstream_loss().iter())
        .chain(series.spurious_retx().iter())
        .map(|e| e.span)
        .collect();
    waves.sort();
    let mut episodes: Vec<ConsecutiveLosses> = Vec::new();
    for wave in waves {
        match episodes.last_mut() {
            Some(ep) if wave.start - ep.span.end <= EPISODE_GAP || ep.span.overlaps(wave) => {
                ep.span = ep.span.hull(wave);
                ep.retransmissions += 1;
            }
            _ => episodes.push(ConsecutiveLosses {
                span: wave,
                retransmissions: 1,
            }),
        }
    }
    episodes.retain(|e| e.retransmissions >= threshold);
    episodes
}

/// A detected pathological peer-group blocking incident (§IV-B,
/// Fig. 9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerGroupBlocking {
    /// The pause on the healthy (blocked) connection.
    pub pause: Span,
    /// Overlap with the faulty member's loss/retransmission activity.
    pub overlap: Span,
}

/// Idle spans of one session closer than this merge into one pause:
/// keepalives every ~60 s briefly interrupt `SendAppLimited`.
const PAUSE_MERGE_GAP: Micros = Micros::from_secs(2);

/// The pauses a session could be blocked in: its `SendAppLimited`
/// spans merged across interruptions of at most 2 s, keeping those
/// that last at least `min_pause`. The blocked side of
/// [`find_peer_group_blocking`], and what the live monitor computes once
/// per analysis. Allocates nothing when no pause qualifies.
pub fn long_pauses(series: &SeriesSet, min_pause: Micros) -> Vec<Span> {
    let mut pauses = Vec::new();
    let mut current: Option<Span> = None;
    // Events are kept in start order, so one pass merges them: a span
    // starting within the gap of the running hull's end extends it.
    for span in series.send_app_limited().iter().map(|e| e.span) {
        if span.is_empty() {
            continue;
        }
        match current {
            Some(c) if span.start - c.end <= PAUSE_MERGE_GAP => current = Some(c.hull(span)),
            Some(c) => {
                if c.duration() >= min_pause {
                    pauses.push(c);
                }
                current = Some(span);
            }
            None => current = Some(span),
        }
    }
    if let Some(c) = current.filter(|c| c.duration() >= min_pause) {
        pauses.push(c);
    }
    pauses
}

/// The blocking rule for one ordered pair: each of the blocked
/// session's `pauses` ([`long_pauses`]) that the `faulty` session's
/// loss, retransmission or zero-window activity covers for at least a
/// quarter of its length.
fn blocking_during(pauses: &[Span], faulty: &SeriesSet) -> Vec<PeerGroupBlocking> {
    if pauses.is_empty() {
        return Vec::new();
    }
    let faulty_loss = faulty.all_loss().union(&faulty.zero_window().to_span_set());
    let mut incidents = Vec::new();
    for pause in pauses {
        let overlap = SpanSet::from_span(*pause).intersection(&faulty_loss);
        if let Some(hull) = overlap.hull() {
            // Require a substantial overlap: the faulty session was in
            // trouble for most of the pause.
            if overlap.size() >= pause.duration() / 4 {
                incidents.push(PeerGroupBlocking {
                    pause: *pause,
                    overlap: hull,
                });
            }
        }
    }
    incidents
}

/// Detects pathological peer-group blocking between two sessions of the
/// same group: a long pause in `blocked`'s sending (its
/// `SendAppLimited` series, merged across keepalive interruptions)
/// that coincides with loss/retransmission activity on `faulty`
/// (`blocked.SendAppLimited ∩ faulty.Loss` in the paper's notation).
///
/// `min_pause` filters ordinary idleness; the paper's incidents run
/// 90–180 s (a BGP hold timeout).
pub fn find_peer_group_blocking(
    blocked: &SeriesSet,
    faulty: &SeriesSet,
    min_pause: Micros,
) -> Vec<PeerGroupBlocking> {
    blocking_during(&long_pauses(blocked, min_pause), faulty)
}

/// Scans every ordered pair of analyses for peer-group blocking — the
/// whole-capture convenience over [`find_peer_group_blocking`]:
/// returns `(blocked index, faulty index, incidents)` for each pair
/// with at least one incident. Accepts owned or borrowed analyses
/// (`&[Analysis]` or `&[&Analysis]`), so callers holding a cache can
/// scan without cloning.
pub fn find_peer_group_blocking_all<B: std::borrow::Borrow<crate::Analysis>>(
    analyses: &[B],
    min_pause: Micros,
) -> Vec<(usize, usize, Vec<PeerGroupBlocking>)> {
    let members: Vec<(Ipv4Addr, &SeriesSet)> = analyses
        .iter()
        .map(|a| (a.borrow().sender.0, &a.borrow().series))
        .collect();
    find_peer_group_blocking_among(&members, min_pause)
}

/// [`find_peer_group_blocking_all`] over what it reads of each
/// analysis: the data sender's address and the series.
pub fn find_peer_group_blocking_among(
    members: &[(Ipv4Addr, &SeriesSet)],
    min_pause: Micros,
) -> Vec<(usize, usize, Vec<PeerGroupBlocking>)> {
    let pauses: Vec<Vec<Span>> = members
        .iter()
        .map(|(_, series)| long_pauses(series, min_pause))
        .collect();
    let members: Vec<PeerMember<'_>> = members
        .iter()
        .zip(&pauses)
        .map(|(&(sender, series), pauses)| PeerMember {
            sender,
            pauses,
            series,
        })
        .collect();
    pair_peer_groups(&members).0
}

/// One session of a peer-group scan: its data sender's address, its
/// [`long_pauses`], and its series.
#[derive(Debug, Clone, Copy)]
pub struct PeerMember<'a> {
    /// The data sender's address: the router that would block it.
    pub sender: Ipv4Addr,
    /// The pauses it could be blocked in.
    pub pauses: &'a [Span],
    /// The series a faulty member's losses are read from.
    pub series: &'a SeriesSet,
}

/// The pairing core of [`find_peer_group_blocking_among`]: pairs each
/// member holding a long pause with every other member of its sender
/// group, and returns `(blocked index, faulty index, incidents)` for
/// each pair with an incident, in (blocked asc, faulty asc) order, plus
/// the number of pairs it compared. Peer groups replicate from one
/// router, so only sessions sharing a sender address can pair, and only
/// a member with a long pause can be the blocked one: a population
/// without long pauses costs a sort and compares no pair.
pub fn pair_peer_groups(
    members: &[PeerMember<'_>],
) -> (Vec<(usize, usize, Vec<PeerGroupBlocking>)>, usize) {
    // Order the members by sender first, so a group is a run, with no
    // allocation per member.
    let mut by_sender: Vec<usize> = (0..members.len()).collect();
    by_sender.sort_unstable_by_key(|&i| (members[i].sender, i));
    let mut group_of = vec![0..0; members.len()];
    let mut start = 0;
    for end in 1..=by_sender.len() {
        if by_sender
            .get(end)
            .is_none_or(|&i| members[i].sender != members[by_sender[start]].sender)
        {
            for &i in &by_sender[start..end] {
                group_of[i] = start..end;
            }
            start = end;
        }
    }
    let mut hits = Vec::new();
    let mut pairs = 0;
    for (i, blocked) in members.iter().enumerate() {
        if blocked.pauses.is_empty() {
            continue;
        }
        // Indices ascend within a run, so hits keep the (blocked asc,
        // faulty asc) order of the full pair scan.
        for &j in &by_sender[group_of[i].clone()] {
            if i == j {
                continue;
            }
            pairs += 1;
            let incidents = blocking_during(blocked.pauses, members[j].series);
            if !incidents.is_empty() {
                hits.push((i, j, incidents));
            }
        }
    }
    (hits, pairs)
}

/// A detected zero-window-probe bug incident (§IV-B `ZeroAckBug`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroAckBug {
    /// Periods where the connection was simultaneously zero-window
    /// flow-controlled and suffering (apparent) upstream losses.
    pub spans: SpanSet,
}

/// Checks the conflicting-series condition `ZeroAdvBndOut ∩
/// UpstreamLoss`: packets are being "lost" while the transfer is
/// throttled to nearly zero rate — the signature of the sender
/// discarding its own zero-window probes.
///
/// The intersection is taken at episode granularity: each zero-window
/// period is dilated by one second before intersecting, because the
/// bug's loss recovery begins exactly when the window reopens, i.e.
/// immediately *after* the strict zero-window span.
pub fn find_zero_ack_bug(series: &SeriesSet) -> Option<ZeroAckBug> {
    let dilated = series.zero_adv_bnd_out().dilated(Micros::from_secs(1));
    let conflict = dilated.intersection(&series.upstream_loss().to_span_set());
    if conflict.is_empty() {
        None
    } else {
        Some(ZeroAckBug { spans: conflict })
    }
}

/// A detected delayed-ACK / retransmission-timer interaction (one of
/// the paper's "misc. issues: bugs, delay acks" — Table II row 4): the
/// sender's RTO expires while the receiver is still holding a delayed
/// ACK, producing spurious retransmissions of data that was delivered
/// fine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayedAckInteraction {
    /// The spurious retransmissions attributed to the race.
    pub spans: SpanSet,
    /// How many spurious retransmissions were found.
    pub count: usize,
}

/// Detects the delayed-ACK vs RTO race: spurious retransmissions (the
/// original was already acknowledged, or was acknowledged immediately
/// after the retransmission) occurring *outside* any genuine loss
/// episode. A sender whose minimum RTO undercuts the receiver's
/// delayed-ACK timer shows this at transfer tails and after odd-sized
/// flights.
pub fn find_delayed_ack_interaction(series: &SeriesSet) -> Option<DelayedAckInteraction> {
    let spurious = series.spurious_retx().to_span_set();
    if spurious.is_empty() {
        return None;
    }
    // Genuine loss activity nearby disqualifies a spurious wave: fast
    // retransmit of a real hole can also resend delivered bytes.
    let real_loss = series
        .upstream_loss()
        .to_span_set()
        .union(&series.downstream_loss().to_span_set())
        .dilated(Micros::from_millis(500));
    let isolated = spurious.difference(&real_loss);
    if isolated.is_empty() {
        return None;
    }
    Some(DelayedAckInteraction {
        count: isolated.len(),
        spans: isolated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{SeriesBuilder, Slot};
    use tdat_timeset::EventSeries;

    fn builder_with_gaps(gaps_us: &[i64]) -> SeriesBuilder {
        let mut s = SeriesBuilder::new(Span::from_micros(0, 100_000_000), 1448, 65535);
        let mut t = 0i64;
        for &g in gaps_us {
            s[Slot::SendAppLimited].push(Span::from_micros(t, t + g), 0);
            t += g + 1_000;
        }
        s
    }

    fn series_with_gaps(gaps_us: &[i64]) -> SeriesSet {
        builder_with_gaps(gaps_us).build()
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Degenerate knees (at either end of the curve, or on
            // pathological flat/duplicate-heavy inputs) must never
            // panic — they simply yield no timer.
            #[test]
            fn infer_timer_never_panics(
                gaps in prop::collection::vec(0i64..5_000_000, 0..48),
                min_gaps in 0usize..12,
            ) {
                let s = series_with_gaps(&gaps);
                let _ = infer_timer(&s, min_gaps);
            }

            #[test]
            fn l_method_knee_is_in_bounds(
                gaps in prop::collection::vec(0i64..5_000_000, 0..48),
            ) {
                let mut gaps = gaps;
                gaps.sort_unstable();
                if let Some(knee) = l_method_knee(&gaps) {
                    prop_assert!(knee < gaps.len());
                }
            }
        }

        #[test]
        fn knee_at_either_end_yields_no_timer_not_a_panic() {
            // Four constant gaps force fit_rmse to zero on every split,
            // so the first candidate split wins; with near-minimum
            // input lengths the split sits at the edge of the curve and
            // one side of the knee holds a single element (historically
            // an out-of-bounds index in the plateau-median lookup).
            for n in 4..8 {
                let s = series_with_gaps(&vec![200_000; n]);
                let timer = infer_timer(&s, 2);
                if let Some(t) = timer {
                    assert_eq!(t.period, tdat_timeset::Micros(200_000));
                }
            }
        }
    }

    #[test]
    fn timer_inferred_from_repetitive_gaps() {
        // 40 gaps near 200 ms with small jitter, plus a few outliers.
        let mut gaps: Vec<i64> = (0..40).map(|i| 200_000 + (i % 7) * 800).collect();
        gaps.extend([950_000, 1_200_000, 20_000]);
        let s = series_with_gaps(&gaps);
        let timer = infer_timer(&s, 10).expect("timer must be found");
        let period = timer.period.as_micros();
        assert!(
            (180_000..=225_000).contains(&period),
            "inferred {period} us"
        );
        assert!(timer.gap_count >= 35);
        assert!(timer.total_delay >= Micros::from_secs(7));
    }

    #[test]
    fn no_timer_from_scattered_gaps() {
        // Log-uniformly scattered gaps: no repetitive timer.
        let gaps: Vec<i64> = (1..12).map(|i| 1_000i64 << i).collect();
        let s = series_with_gaps(&gaps);
        assert_eq!(infer_timer(&s, 10), None);
    }

    #[test]
    fn no_timer_from_too_few_gaps() {
        let s = series_with_gaps(&[200_000, 200_000]);
        assert_eq!(infer_timer(&s, 2), None, "below the hard minimum of 4");
    }

    #[test]
    fn consecutive_losses_thresholded() {
        let mut s = builder_with_gaps(&[]);
        let mut up: EventSeries<u32> = EventSeries::new();
        // 9 chained waves, then an isolated one far away.
        for i in 0..9 {
            up.push(Span::from_micros(i * 1_000, i * 1_000 + 900), 1448);
        }
        up.push(Span::from_micros(50_000_000, 50_000_900), 1448);
        s[Slot::UpstreamLoss] = up;
        let found = find_consecutive_losses(&s.build(), 8);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].retransmissions, 9);
        let none = find_consecutive_losses(&s.build(), 10);
        assert!(none.is_empty());
    }

    #[test]
    fn peer_group_blocking_detected() {
        // Blocked session: idle 0–180 s in 60 s chunks (keepalives).
        let mut blocked = builder_with_gaps(&[]);
        let mut sal: EventSeries<u32> = EventSeries::new();
        sal.push(Span::from_micros(0, 59_999_000), 0);
        sal.push(Span::from_micros(60_000_000, 119_999_000), 0);
        sal.push(Span::from_micros(120_000_000, 180_000_000), 0);
        blocked[Slot::SendAppLimited] = sal;
        // Faulty session: retransmission storm over the same window.
        let mut faulty = builder_with_gaps(&[]);
        let mut loss: EventSeries<u32> = EventSeries::new();
        loss.push(Span::from_micros(1_000_000, 170_000_000), 1448);
        faulty[Slot::DownstreamLoss] = loss;
        let found =
            find_peer_group_blocking(&blocked.build(), &faulty.build(), Micros::from_secs(90));
        assert_eq!(found.len(), 1);
        assert!(found[0].pause.duration() >= Micros::from_secs(170));
    }

    #[test]
    fn long_pauses_merge_across_two_seconds_and_keep_min_pause() {
        let mut s = builder_with_gaps(&[]);
        let mut sal: EventSeries<u32> = EventSeries::new();
        // 0–10 s and 12–20 s merge (2 s apart); 23–30 s stays apart.
        sal.push(Span::from_micros(0, 10_000_000), 0);
        sal.push(Span::from_micros(12_000_000, 20_000_000), 0);
        sal.push(Span::from_micros(23_000_000, 30_000_000), 0);
        s[Slot::SendAppLimited] = sal;
        let merged = Span::from_micros(0, 20_000_000);
        assert_eq!(long_pauses(&s.build(), Micros::from_secs(20)), vec![merged]);
        assert_eq!(
            long_pauses(&s.build(), Micros::from_secs(7)),
            vec![merged, Span::from_micros(23_000_000, 30_000_000)]
        );
        assert!(long_pauses(&s.build(), Micros(20_000_001)).is_empty());
    }

    #[test]
    fn no_peer_group_blocking_without_faulty_overlap() {
        let mut blocked = builder_with_gaps(&[]);
        let mut sal: EventSeries<u32> = EventSeries::new();
        sal.push(Span::from_micros(0, 180_000_000), 0);
        blocked[Slot::SendAppLimited] = sal;
        let faulty = series_with_gaps(&[]); // healthy
        let found = find_peer_group_blocking(&blocked.build(), &faulty, Micros::from_secs(90));
        assert!(found.is_empty());
    }

    #[test]
    fn delayed_ack_interaction_detected_when_isolated() {
        let mut s = builder_with_gaps(&[]);
        let mut sp: EventSeries<u32> = EventSeries::new();
        sp.push(Span::from_micros(10_000_000, 10_200_000), 100);
        s[Slot::SpuriousRetx] = sp.clone();
        let found = find_delayed_ack_interaction(&s.build()).expect("isolated spurious retx");
        assert_eq!(found.count, 1);
        // A real loss episode right next to it disqualifies the wave.
        let mut up: EventSeries<u32> = EventSeries::new();
        up.push(Span::from_micros(9_900_000, 10_050_000), 1448);
        s[Slot::UpstreamLoss] = up;
        assert_eq!(find_delayed_ack_interaction(&s.build()), None);
    }

    #[test]
    fn no_delayed_ack_interaction_without_spurious() {
        let s = series_with_gaps(&[200_000; 10]);
        assert_eq!(find_delayed_ack_interaction(&s), None);
    }

    #[test]
    fn zero_ack_bug_conflict() {
        let mut s = builder_with_gaps(&[]);
        let mut zw: EventSeries<u32> = EventSeries::new();
        zw.push(Span::from_micros(0, 10_000_000), 0);
        s[Slot::ZeroWindow] = zw;
        assert!(
            find_zero_ack_bug(&s.build()).is_none(),
            "zero window alone is fine"
        );
        let mut up: EventSeries<u32> = EventSeries::new();
        up.push(Span::from_micros(5_000_000, 6_000_000), 1);
        s[Slot::UpstreamLoss] = up;
        let bug = find_zero_ack_bug(&s.build()).expect("conflict must be flagged");
        assert_eq!(bug.spans.size(), Micros::from_secs(1));
    }
}
