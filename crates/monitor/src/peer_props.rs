//! The tick's peer-group correlation — long pauses cached at refresh,
//! members drawn only from sender groups that hold one — against the
//! pairwise scan it replaced, as a property. `reference` keeps that
//! scan's functions as they were: [`find_peer_group_blocking_among`]
//! over every cached analysis of the fleet, each pause merged afresh.
//!
//! The fleets: 1–3 sources, sender groups of 1–6 members, `SendAppLimited` spans whose 2 s-merged
//! hull straddles `min_pause`, loss or zero-window activity covering
//! about a quarter of it on other members, quarantined members, and a
//! second refresh that changes a member's pauses or re-elects its data
//! sender (the session's other end, which leads another group).
//!
//! [`find_peer_group_blocking_among`]: reference::find_peer_group_blocking_among

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use tdat::{Analyzer, PartialAnalysis, SeriesSet, Verdict};
use tdat_timeset::{EventSeries, Micros, Span};
use tdat_trace::{ConnKey, ConnProfile, ConnectionTracker, TrackerConfig};

use crate::alerts::{AlertConfig, Condition};
use crate::engine::{
    fleet_view, peer_fleet, peer_group_conditions, session_id, AnalysisCtx, SourceScope,
};

/// The pairwise scan as it was before pauses were cached: every
/// function verbatim, but for the visibility of the last.
mod reference {
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    use tdat::{PeerGroupBlocking, SeriesSet};
    use tdat_timeset::{Micros, Span, SpanSet};

    use crate::alerts::{AlertKind, Condition};
    use crate::engine::CachedAnalysis;

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
        // Merge the blocked session's idle spans across small interruptions
        // (keepalives every ~60 s briefly interrupt SendAppLimited).
        let idle = blocked.send_app_limited.to_span_set();
        let mut merged = SpanSet::new();
        let mut current: Option<Span> = None;
        for span in idle.iter() {
            match current {
                Some(c) if span.start - c.end <= Micros::from_secs(2) => {
                    current = Some(c.hull(*span));
                }
                Some(c) => {
                    merged.insert(c);
                    current = Some(*span);
                }
                None => current = Some(*span),
            }
        }
        if let Some(c) = current {
            merged.insert(c);
        }

        let faulty_loss = faulty.all_loss().union(&faulty.zero_window.to_span_set());
        let mut incidents = Vec::new();
        for pause in merged.iter().filter(|s| s.duration() >= min_pause) {
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

    /// [`find_peer_group_blocking_all`] over what it reads of each
    /// analysis: the data sender's address and the series.
    pub fn find_peer_group_blocking_among(
        members: &[(Ipv4Addr, &SeriesSet)],
        min_pause: Micros,
    ) -> Vec<(usize, usize, Vec<PeerGroupBlocking>)> {
        // Peer groups replicate from one router: only sessions sharing a
        // sender address can pair. Order the members by sender first, so a
        // group is a run and a population of unrelated sessions (the common
        // live-monitor case) costs a sort instead of an O(n²) pair scan,
        // with no allocation per member.
        let mut by_sender: Vec<usize> = (0..members.len()).collect();
        by_sender.sort_unstable_by_key(|&i| (members[i].0, i));
        let mut group_of = vec![0..0; members.len()];
        let mut start = 0;
        for end in 1..=by_sender.len() {
            if by_sender
                .get(end)
                .is_none_or(|&i| members[i].0 != members[by_sender[start]].0)
            {
                for &i in &by_sender[start..end] {
                    group_of[i] = start..end;
                }
                start = end;
            }
        }
        let mut hits = Vec::new();
        for (i, (_, blocked)) in members.iter().enumerate() {
            // Indices ascend within a run, so hits keep the (blocked asc,
            // faulty asc) order of the full pair scan.
            for &j in &by_sender[group_of[i].clone()] {
                if i == j {
                    continue;
                }
                let incidents = find_peer_group_blocking(blocked, members[j].1, min_pause);
                if !incidents.is_empty() {
                    hits.push((i, j, incidents));
                }
            }
        }
        hits
    }

    /// Tick phase 3: peer-group blocking correlates across the whole
    /// fleet — a BGP sender paces *all* its group members, wherever each
    /// one was captured. Quarantined connections are excluded, so a
    /// poisoned source cannot contaminate the correlation. `fleet` must be
    /// in (source, tracker-insertion) order for deterministic output.
    pub(super) fn peer_group_conditions(
        fleet: &[(&Arc<str>, &CachedAnalysis)],
        min_pause: Micros,
        conditions: &mut Vec<Condition>,
    ) {
        let members: Vec<_> = fleet
            .iter()
            .map(|(_, c)| (c.partial.sender.0, &c.partial.series))
            .collect();
        for (blocked, faulty, incidents) in find_peer_group_blocking_among(&members, min_pause) {
            let (blocked_src, blocked_cached) = fleet[blocked];
            let (faulty_src, faulty_cached) = fleet[faulty];
            if blocked_cached.partial.verdict.is_quarantined()
                || faulty_cached.partial.verdict.is_quarantined()
            {
                continue;
            }
            let Some(last) = incidents.last() else {
                continue;
            };
            // Name the faulty member's source only when it differs —
            // single-source detail stays byte-identical.
            let cross = if blocked_src == faulty_src {
                String::new()
            } else {
                format!(" [source {faulty_src}]")
            };
            conditions.push(Condition {
                source: blocked_src.clone(),
                session: blocked_cached.session.clone(),
                kind: AlertKind::PeerGroupBlocking,
                evidence: last.pause,
                detail: format!(
                    "paused behind faulty group member {}{} ({:.0} s overlap with its losses)",
                    faulty_cached.session,
                    cross,
                    last.overlap.duration().as_secs_f64()
                ),
            });
        }
    }
}

/// The correlation's `min_pause`, the default's 30 s.
const MIN_PAUSE: Micros = Micros::from_secs(30);

/// When every member's activity starts: well inside a tick's window.
const BASE: i64 = 100_000_000;

/// Gaps between the two idle spans of a paused member, µs: merged by
/// the 2 s rule up to 2 s, and not past it.
const GAPS: [i64; 5] = [500_000, 1_000_000, 1_500_000, 2_000_000, 2_500_000];

/// Offsets of a merged hull from `min_pause`, µs.
const HULLS: [i64; 5] = [-1_000_000, -1, 0, 1, 1_000_000];

/// Lengths of a faulty member's loss or zero-window span, µs: around a
/// quarter of a 30 s pause.
const LOSSES: [i64; 5] = [7_000_000, 7_499_999, 7_500_000, 7_750_000, 15_000_000];

/// One member as generated: `(source, shape, gap, loss kind, loss
/// length, quarantine roll, second refresh, start offset, rank)`.
/// A source's ordinals follow its members' ranks, so groups interleave
/// in ordinal order.
type Spec = (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

fn member() -> impl Strategy<Value = Spec> {
    (
        0usize..3,
        0usize..8,
        0usize..5,
        0usize..5,
        0usize..5,
        0usize..6,
        0usize..4,
        0usize..3,
        0usize..1000,
    )
}

/// The address group `g` sends from.
fn router(g: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, g as u8 + 1)
}

/// `SendAppLimited` of shape `shape` starting at `start`: none, one
/// short idle span, two spans `gap` apart whose hull is `min_pause` plus
/// one of [`HULLS`], or that hull and a second long pause a minute on.
fn idle_spans(series: &mut SeriesSet, shape: usize, gap: i64, start: i64) {
    let mut sal = EventSeries::new();
    match shape {
        0 => {}
        1 => sal.push(Span::from_micros(start, start + 5_000_000), 0),
        _ => {
            let hull = MIN_PAUSE.0 + HULLS[(shape - 2).min(4)];
            let first = (hull - gap) / 2;
            sal.push(Span::from_micros(start, start + first), 0);
            sal.push(Span::from_micros(start + first + gap, start + hull), 0);
            if shape == 7 {
                let later = start + hull + 60_000_000;
                sal.push(Span::from_micros(later, later + 40_000_000), 0);
            }
        }
    }
    series.send_app_limited = sal;
}

/// Loss or zero-window activity of kind `kind` (none for 4) lasting
/// `len`, a second into the pauses.
fn trouble(series: &mut SeriesSet, kind: usize, len: i64) {
    let span = Span::from_micros(BASE + 1_000_000, BASE + 1_000_000 + len);
    let mut events = EventSeries::new();
    events.push(span, 1448);
    match kind {
        0 => series.upstream_loss = events,
        1 => series.downstream_loss = events,
        2 => series.spurious_retx = events,
        3 => series.zero_window = events,
        _ => {}
    }
}

/// Member `m` of group `g` (of `groups`), as of its first refresh, or
/// its second when `again` (a changed shape, or the data sender
/// re-elected).
fn analysis(spec: &Spec, g: usize, groups: usize, m: usize, again: bool) -> PartialAnalysis {
    let &(_, shape, gap, kind, len, quarantine, refresh, offset, _) = spec;
    let (mut sender, mut receiver) = (
        (router(g), 179),
        (router((g + 1) % groups), 40_000 + m as u16),
    );
    let mut shape = shape;
    if again && refresh == 0 {
        shape = (shape + 3) % 8;
    }
    if again && refresh == 1 {
        (sender, receiver) = (receiver, sender);
    }
    let mut series = SeriesSet {
        period: Span::from_micros(0, BASE + 300_000_000),
        ..SeriesSet::default()
    };
    idle_spans(
        &mut series,
        shape,
        GAPS[gap],
        BASE + offset as i64 * 3_000_000,
    );
    trouble(&mut series, kind, LOSSES[len]);
    PartialAnalysis {
        profile: ConnProfile {
            data_bytes: 1_000,
            ..ConnProfile::default()
        },
        sender,
        receiver,
        period: series.period,
        series,
        anomalies: Default::default(),
        verdict: if quarantine == 0 {
            Verdict::Quarantined {
                reason: "generated".to_string(),
            }
        } else {
            Verdict::Clean
        },
    }
}

proptest! {
    #[test]
    fn cached_pause_correlation_matches_the_pairwise_scan(
        groups in prop::collection::vec(prop::collection::vec(member(), 1..7), 1..4),
    ) {
        assert_eq!(AlertConfig::default().min_pause, MIN_PAUSE);
        let ctx = AnalysisCtx {
            analyzer: Analyzer::default(),
            window: Micros::from_secs(120),
            timer_min_gaps: 8,
            stall_after: Micros::from_secs(60),
            min_pause: MIN_PAUSE,
        };
        let names: Vec<Arc<str>> = ["a", "b", "c"].into_iter().map(Arc::from).collect();
        let mut scopes: Vec<SourceScope> = names
            .iter()
            .enumerate()
            .map(|(s, name)| {
                SourceScope::new(
                    name.clone(),
                    ConnectionTracker::scoped(TrackerConfig::streaming(), s as u64),
                )
            })
            .collect();
        // Members in (group, member) order, each with its source's
        // ordinal: its place among that source's members by rank.
        let specs: Vec<(usize, &Spec)> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, group)| group.iter().map(move |spec| (g, spec)))
            .collect();
        let ordinal = |m: usize| {
            let (_, spec) = specs[m];
            specs
                .iter()
                .enumerate()
                .filter(|(n, (_, other))| other.0 == spec.0 && (other.8, *n) < (spec.8, m))
                .count() as u64
        };
        for again in [false, true] {
            for (m, &(g, spec)) in specs.iter().enumerate() {
                // A second refresh for three members in four.
                if again && spec.6 == 3 {
                    continue;
                }
                let key = ConnKey::of_endpoints(
                    (router(g), 179),
                    (router((g + 1) % groups.len()), 40_000 + m as u16),
                );
                let partial = analysis(spec, g, groups.len(), m, again);
                scopes[spec.0].store(key, ordinal(m), partial, 0, &ctx);
            }
        }

        let mut expected: Vec<Condition> = Vec::new();
        reference::peer_group_conditions(&fleet_view(&scopes), MIN_PAUSE, &mut expected);
        let mut actual: Vec<Condition> = Vec::new();
        peer_group_conditions(&peer_fleet(&scopes), &mut actual);
        prop_assert_eq!(actual, expected);
        for (_, cached) in fleet_view(&scopes) {
            prop_assert_eq!(
                &cached.session,
                &session_id(cached.partial.sender, cached.partial.receiver)
            );
        }
    }
}
