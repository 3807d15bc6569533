//! Typed alerts with per-session hysteresis.
//!
//! Detectors re-evaluate every analysis tick, so a borderline problem
//! (a pause hovering around a threshold, a loss episode straddling the
//! window edge) would flap an edge-triggered alert on and off each
//! tick. [`AlertEngine`] dedupes that: a [`Condition`] must hold for
//! 2 consecutive ticks before the alert is raised, and must be absent
//! for 3 consecutive ticks before it clears. Events are emitted only on
//! the raise/clear transitions, never while a state persists. The
//! detectors' own thresholds are constants here too: 8 idle gaps before
//! a pacing timer is inferred, a 30 s pause before a session can be
//! found blocked by its peer group, and [`STALL_AFTER`] without data
//! progress before a transfer counts as stalled.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use tdat_timeset::{Micros, Span};

/// The problem classes the monitor alerts on (the paper's §IV-B
/// detectors plus a liveness check only a live monitor can make).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertKind {
    /// A repetitive sender pacing timer dominates idle time.
    TimerGap,
    /// An episode of consecutive retransmissions (cwnd collapse).
    ConsecutiveRetransmissions,
    /// A healthy session pausing behind a faulty peer-group member.
    PeerGroupBlocking,
    /// The zero-window-probe discard bug (`ZeroAckBug`).
    ZeroWindowBug,
    /// An open transfer making no forward progress.
    StalledTransfer,
    /// The capture itself is too damaged to trust: the connection's
    /// anomaly budget tripped and its analysis is quarantined.
    CaptureQuality,
}

impl AlertKind {
    /// Every kind, in a fixed order (metrics and JSON use it).
    pub const ALL: [AlertKind; 6] = [
        AlertKind::TimerGap,
        AlertKind::ConsecutiveRetransmissions,
        AlertKind::PeerGroupBlocking,
        AlertKind::ZeroWindowBug,
        AlertKind::StalledTransfer,
        AlertKind::CaptureQuality,
    ];

    /// Stable snake_case identifier used in the JSONL stream.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::TimerGap => "timer_gap",
            AlertKind::ConsecutiveRetransmissions => "consecutive_retransmissions",
            AlertKind::PeerGroupBlocking => "peer_group_blocking",
            AlertKind::ZeroWindowBug => "zero_window_bug",
            AlertKind::StalledTransfer => "stalled_transfer",
            AlertKind::CaptureQuality => "capture_quality",
        }
    }

    /// The kind's fixed severity: pathological bugs are critical,
    /// transfer-degrading conditions warn, and an inferred pacing timer
    /// is informational (often deliberate configuration).
    pub fn severity(self) -> Severity {
        match self {
            AlertKind::TimerGap => Severity::Info,
            AlertKind::ConsecutiveRetransmissions => Severity::Warning,
            AlertKind::StalledTransfer => Severity::Warning,
            AlertKind::CaptureQuality => Severity::Warning,
            AlertKind::PeerGroupBlocking => Severity::Critical,
            AlertKind::ZeroWindowBug => Severity::Critical,
        }
    }
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How urgent an alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy but usually intentional (configuration).
    Info,
    /// Degrading the transfer; worth investigating.
    Warning,
    /// A pathological condition (stuck or blocked sessions).
    Critical,
}

impl Severity {
    /// Stable lowercase identifier used in the JSONL stream.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Consecutive ticks a condition must hold before it raises.
pub(crate) const RAISE_AFTER: u32 = 2;
/// Consecutive condition-free ticks before an active alert clears.
pub(crate) const CLEAR_AFTER: u32 = 3;
/// Minimum idle gaps for the timer-inference detector.
pub(crate) const TIMER_MIN_GAPS: usize = 8;
/// Minimum sending pause for peer-group blocking detection.
pub(crate) const MIN_PAUSE: Micros = Micros::from_secs(30);
/// How long an open transfer may make no data progress before it
/// counts as stalled.
pub const STALL_AFTER: Micros = Micros::from_secs(60);

// A zero streak would raise (or clear) an alert without a tick's
// evidence; a non-positive pause or stall threshold would flag every
// session at every tick.
const _: () = assert!(RAISE_AFTER >= 1 && CLEAR_AFTER >= 1 && TIMER_MIN_GAPS >= 1);
const _: () = assert!(MIN_PAUSE.as_micros() > 0 && STALL_AFTER.as_micros() > 0);

/// One detector firing for one session during one analysis tick — the
/// engine's input. Conditions are stateless; the engine supplies the
/// raise/clear memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// The packet source whose capture produced the evidence. Alert
    /// state is keyed per source: the same session name observed by two
    /// collectors is two independent alerts.
    pub source: Arc<str>,
    /// The session the condition applies to (`ip:port->ip:port`).
    pub session: String,
    /// Which problem class fired.
    pub kind: AlertKind,
    /// The time extent of the supporting evidence.
    pub evidence: Span,
    /// Human-readable specifics (timer period, blocking peer, …).
    pub detail: String,
}

/// Whether an [`Alert`] event reports a raise or a clear transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertAction {
    /// The condition persisted long enough to become active.
    Raise,
    /// The active condition went away (or its session ended).
    Clear,
}

impl AlertAction {
    /// Stable lowercase identifier used in the JSONL stream.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertAction::Raise => "raise",
            AlertAction::Clear => "clear",
        }
    }
}

/// A raise or clear transition emitted by the [`AlertEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Trace time of the transition.
    pub at: Micros,
    /// The packet source whose capture produced the evidence.
    pub source: Arc<str>,
    /// Raise or clear.
    pub action: AlertAction,
    /// Problem class.
    pub kind: AlertKind,
    /// The kind's severity.
    pub severity: Severity,
    /// The affected session (`ip:port->ip:port`).
    pub session: String,
    /// When the alert was raised (equals `at` for raises; on clears it
    /// gives the alert's total active duration).
    pub since: Micros,
    /// Evidence extent from the most recent supporting condition.
    pub evidence: Span,
    /// Specifics from the most recent supporting condition.
    pub detail: String,
}

/// Where a standing condition sits in a tick's condition order: the
/// rows of each scope by ordinal — a row's analysis conditions by
/// index, then its stall — and after every row, the peer-group pass's
/// conditions in pair order. A tick raises in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Rank {
    pass: u8,
    scope: u32,
    row: u64,
    index: u32,
}

impl Rank {
    /// Analysis condition `index` of row `ordinal` in scope `scope`.
    pub(crate) fn row(scope: u32, ordinal: u64, index: usize) -> Rank {
        Rank {
            pass: 0,
            scope,
            row: ordinal,
            index: index as u32,
        }
    }

    /// The stall of row `ordinal` in scope `scope`, after its analysis
    /// conditions.
    pub(crate) fn stall(scope: u32, ordinal: u64) -> Rank {
        Rank {
            pass: 0,
            scope,
            row: ordinal,
            index: u32::MAX,
        }
    }

    /// Condition `index` of the peer-group pass, after every row.
    pub(crate) fn peer(index: usize) -> Rank {
        Rank {
            pass: 1,
            scope: 0,
            row: index as u64,
            index: 0,
        }
    }
}

/// What a standing condition says at a tick.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Held {
    /// Evidence and detail fixed when the condition was found.
    Fixed {
        /// The evidence extent.
        evidence: Span,
        /// The specifics.
        detail: String,
    },
    /// A transfer with no data progress since `since`, `bytes` moved:
    /// its evidence and detail run to the tick.
    Stall {
        /// The tick of the last progress.
        since: Micros,
        /// Data bytes transferred.
        bytes: u64,
    },
}

impl Held {
    fn evidence(&self, at: Micros) -> Span {
        match self {
            Held::Fixed { evidence, .. } => *evidence,
            Held::Stall { since, .. } => Span::new(*since, at),
        }
    }

    fn detail(&self, at: Micros) -> String {
        match self {
            Held::Fixed { detail, .. } => detail.clone(),
            Held::Stall { since, bytes } => stall_detail(*since, at, *bytes),
        }
    }
}

/// The detail of a stall condition at tick time `at`.
pub(crate) fn stall_detail(since: Micros, at: Micros, bytes: u64) -> String {
    format!(
        "no data progress for {:.0} s ({} bytes transferred)",
        (at - since).as_secs_f64(),
        bytes
    )
}

/// A tick's evidence and detail for conditions `held` (in rank order)
/// at tick time `at`: the hull of their evidence, and the last one's
/// detail.
fn summary(held: &[(Rank, Held)], at: Micros) -> (Span, String) {
    let mut conditions = held.iter().map(|(_, held)| held);
    let Some(first) = conditions.next() else {
        return (Span::default(), String::new());
    };
    let mut last = first;
    let mut evidence = first.evidence(at);
    for held in conditions {
        evidence = evidence.hull(held.evidence(at));
        last = held;
    }
    (evidence, last.detail(at))
}

#[derive(Debug)]
struct KeyState {
    /// The conditions of this key that stand, by rank.
    held: Vec<(Rank, Held)>,
    /// Some condition stood at the last tick.
    present: bool,
    active: bool,
    /// The raise tick's time, while active.
    since: Micros,
    /// Evidence and detail as of the last tick a condition stood, once
    /// the conditions changed after it.
    evidence: Span,
    detail: String,
    /// On the engine's touched list: the conditions changed, or the
    /// state was reset, since the last tick.
    touched: bool,
    /// The tick the next transition is checked at: a pending key's
    /// raise, or an active, absent key's clear.
    due: Option<u64>,
    /// The last tick that evaluated this key.
    seen: u64,
}

impl KeyState {
    fn new() -> KeyState {
        KeyState {
            held: Vec::new(),
            present: false,
            active: false,
            since: Micros::ZERO,
            evidence: Span::default(),
            detail: String::new(),
            touched: false,
            due: None,
            seen: 0,
        }
    }
}

/// Hysteresis state key: one alert per (source, session, kind). The
/// source comes first so a single-source engine's key order matches the
/// historical (session, kind) order exactly.
type AlertKey = (Arc<str>, String, AlertKind);

/// How many ticks ahead a transition can be due, plus one: the slots
/// of the engine's ring of due lists.
const DUE_SLOTS: usize = if RAISE_AFTER > CLEAR_AFTER {
    RAISE_AFTER as usize
} else {
    CLEAR_AFTER as usize
};

/// Per-(source, session, kind) hysteresis state machine; see the module
/// docs.
///
/// It is told which conditions start and stop standing, each at its
/// place in the tick's condition order, and schedules each key's next
/// transition by tick: a new key's raise check one tick after it
/// appears, an active key's clear three ticks after its last condition
/// went. So a tick
/// costs the keys whose conditions changed or whose transition fell
/// due; a key that stands, active and unchanged, costs it nothing. What
/// it emits is what a per-tick pass over every standing condition
/// emits: raises in condition order, then clears in key order, with
/// the evidence and detail of the last tick each key's conditions
/// stood.
#[derive(Debug, Default)]
pub struct AlertEngine {
    states: BTreeMap<AlertKey, KeyState>,
    /// Ticks run so far, and the time of the last.
    tick: u64,
    at: Micros,
    /// Keys whose conditions changed, or whose state was reset, since
    /// the last tick.
    touched: Vec<AlertKey>,
    /// Keys whose next transition is due, by tick modulo
    /// [`DUE_SLOTS`]; an entry whose key moved on since is skipped.
    due: [Vec<AlertKey>; DUE_SLOTS],
    /// The conditions of the last [`observe`](Self::observe).
    observed: Vec<Condition>,
    /// Keys the ticks evaluated.
    visits: u64,
}

impl AlertEngine {
    /// Creates an engine with no alert pending or active.
    pub fn new() -> AlertEngine {
        AlertEngine::default()
    }

    /// Feeds one tick's detector conditions and returns the transitions
    /// they cause, in deterministic order (condition order for raises,
    /// key order for clears): every condition stands at this tick, and
    /// none other.
    pub fn observe(&mut self, now: Micros, conditions: &[Condition]) -> Vec<Alert> {
        let observed = std::mem::take(&mut self.observed);
        self.replace(&observed, conditions, |i| Rank::row(0, i as u64, 0));
        self.observed = conditions.to_vec();
        self.tick(now)
    }

    /// Keys the ticks evaluated: those whose conditions changed or
    /// whose transition fell due.
    pub(crate) fn visits(&self) -> u64 {
        self.visits
    }

    /// Marks the state of a key about to change: its first change since
    /// the last tick keeps the evidence and detail its conditions had
    /// at that tick, and lists it for the next.
    fn touch(&mut self, key: AlertKey) -> &mut KeyState {
        let state = self.states.entry(key.clone()).or_insert_with(KeyState::new);
        if !state.touched {
            state.touched = true;
            if state.present {
                (state.evidence, state.detail) = summary(&state.held, self.at);
            }
            self.touched.push(key);
        }
        state
    }

    /// Condition `held` of key `(source, session, kind)` stands from
    /// the next tick on, at `rank`.
    pub(crate) fn hold(
        &mut self,
        source: &Arc<str>,
        session: &str,
        kind: AlertKind,
        rank: Rank,
        held: Held,
    ) {
        let state = self.touch((source.clone(), session.to_owned(), kind));
        let at = state.held.partition_point(|(r, _)| *r < rank);
        debug_assert!(
            state.held.get(at).is_none_or(|(r, _)| *r != rank),
            "one condition per rank"
        );
        state.held.insert(at, (rank, held));
    }

    /// The condition of key `(source, session, kind)` at `rank` stands
    /// no longer. Nothing if none does (its session was cleared since).
    pub(crate) fn release(
        &mut self,
        source: &Arc<str>,
        session: &str,
        kind: AlertKind,
        rank: Rank,
    ) {
        let key = (source.clone(), session.to_owned(), kind);
        let Some(state) = self.states.get(&key) else {
            return;
        };
        if !state.held.iter().any(|(r, _)| *r == rank) {
            return;
        }
        self.touch(key).held.retain(|(r, _)| *r != rank);
    }

    /// The conditions at ranks `rank(0)`, `rank(1)`, … stand as `new`
    /// from the next tick on, no longer as `old`; nothing changes when
    /// the two are equal.
    pub(crate) fn replace(
        &mut self,
        old: &[Condition],
        new: &[Condition],
        rank: impl Fn(usize) -> Rank,
    ) {
        if old == new {
            return;
        }
        for (i, c) in old.iter().enumerate() {
            self.release(&c.source, &c.session, c.kind, rank(i));
        }
        for (i, c) in new.iter().enumerate() {
            let held = Held::Fixed {
                evidence: c.evidence,
                detail: c.detail.clone(),
            };
            self.hold(&c.source, &c.session, c.kind, rank(i), held);
        }
    }

    /// One tick at trace time `now`: evaluates the keys whose
    /// conditions changed or whose transition is due, and returns the
    /// transitions, raises in condition order, then clears in key
    /// order.
    pub(crate) fn tick(&mut self, now: Micros) -> Vec<Alert> {
        let n = self.tick + 1;
        let mut raises: Vec<(Rank, Alert)> = Vec::new();
        let mut clears: Vec<Alert> = Vec::new();
        let mut touched = std::mem::take(&mut self.touched);
        let mut due = std::mem::take(&mut self.due[n as usize % DUE_SLOTS]);
        for key in touched.iter().chain(&due) {
            let Some(state) = self.states.get_mut(key) else {
                continue;
            };
            if state.seen == n {
                continue;
            }
            state.seen = n;
            state.touched = false;
            self.visits += 1;
            let held = !state.held.is_empty();
            let mut schedule = None;
            let mut remove = false;
            match (state.present, held) {
                // A hit resets an active key's misses; on a quiet key it
                // starts a streak.
                (false, true) => {
                    state.present = true;
                    state.due = None;
                    if !state.active {
                        schedule = Some(n + u64::from(RAISE_AFTER) - 1);
                    }
                }
                (true, true) => {}
                // The first miss: a pending streak is broken, an active
                // key counts down from its last hit.
                (true, false) => {
                    state.present = false;
                    state.due = None;
                    match state.active {
                        true => schedule = Some(n - 1 + u64::from(CLEAR_AFTER)),
                        false => remove = true,
                    }
                }
                (false, false) => remove = !state.active,
            }
            if let Some(at) = schedule {
                state.due = Some(at);
            }
            if state.due == Some(n) {
                state.due = None;
                if state.present {
                    let (rank, first) = &state.held[0];
                    state.active = true;
                    state.since = now;
                    raises.push((
                        *rank,
                        Alert {
                            at: now,
                            source: key.0.clone(),
                            action: AlertAction::Raise,
                            kind: key.2,
                            severity: key.2.severity(),
                            session: key.1.clone(),
                            since: now,
                            evidence: first.evidence(now),
                            detail: first.detail(now),
                        },
                    ));
                } else {
                    clears.push(Alert {
                        at: now,
                        source: key.0.clone(),
                        action: AlertAction::Clear,
                        kind: key.2,
                        severity: key.2.severity(),
                        session: key.1.clone(),
                        since: state.since,
                        evidence: state.evidence,
                        detail: std::mem::take(&mut state.detail),
                    });
                    remove = true;
                }
            } else if let Some(at) = state.due {
                if schedule.is_some() {
                    self.due[at as usize % DUE_SLOTS].push(key.clone());
                }
            }
            if remove {
                self.states.remove(key);
            }
        }
        touched.clear();
        due.clear();
        self.touched = touched;
        self.due[n as usize % DUE_SLOTS] = due;
        self.tick = n;
        self.at = now;
        raises.sort_unstable_by_key(|(rank, _)| *rank);
        clears.sort_unstable_by(|a, b| {
            (&a.source, &a.session, a.kind).cmp(&(&b.source, &b.session, b.kind))
        });
        raises
            .into_iter()
            .map(|(_, alert)| alert)
            .chain(clears)
            .collect()
    }

    /// Clears every alert of a session (on one source) that ended
    /// (finalized), emitting clear transitions for the active ones. The
    /// same session name observed by a sibling source is untouched. A
    /// condition of the session that still stands starts a new streak
    /// at the next tick.
    pub fn clear_session(&mut self, source: &str, session: &str, now: Micros) -> Vec<Alert> {
        let mut events = Vec::new();
        let mut key: AlertKey = (Arc::from(source), session.to_owned(), AlertKind::ALL[0]);
        for kind in AlertKind::ALL {
            key.2 = kind;
            let Some(state) = self.states.get_mut(&key) else {
                continue;
            };
            if state.active {
                let evidence = match state.present && !state.touched {
                    true => summary(&state.held, self.at).0,
                    false => state.evidence,
                };
                events.push(Alert {
                    at: now,
                    source: key.0.clone(),
                    action: AlertAction::Clear,
                    kind,
                    severity: kind.severity(),
                    session: key.1.clone(),
                    since: state.since,
                    evidence,
                    detail: "session ended".to_string(),
                });
            }
            if state.held.is_empty() {
                self.states.remove(&key);
                continue;
            }
            state.active = false;
            state.present = false;
            state.due = None;
            if !state.touched {
                state.touched = true;
                self.touched.push(key.clone());
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(session: &str, kind: AlertKind) -> Condition {
        cond_from("cap", session, kind)
    }

    fn cond_from(source: &str, session: &str, kind: AlertKind) -> Condition {
        Condition {
            source: Arc::from(source),
            session: session.to_string(),
            kind,
            evidence: Span::new(Micros::ZERO, Micros::from_secs(1)),
            detail: "test".to_string(),
        }
    }

    /// The tests below step the engine through its hysteresis tick by
    /// tick, at these thresholds.
    fn engine() -> AlertEngine {
        assert_eq!((RAISE_AFTER, CLEAR_AFTER), (2, 3));
        AlertEngine::new()
    }

    #[test]
    fn raises_only_after_consecutive_hits() {
        let mut e = engine();
        let c = [cond("s", AlertKind::StalledTransfer)];
        assert!(e.observe(Micros::from_secs(1), &c).is_empty());
        let raised = e.observe(Micros::from_secs(2), &c);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].action, AlertAction::Raise);
        assert_eq!(raised[0].at, Micros::from_secs(2));
        // Already active: persisting emits nothing more.
        assert!(e.observe(Micros::from_secs(3), &c).is_empty());
    }

    #[test]
    fn single_miss_breaks_a_pending_streak() {
        let mut e = engine();
        let c = [cond("s", AlertKind::TimerGap)];
        assert!(e.observe(Micros::from_secs(1), &c).is_empty());
        assert!(e.observe(Micros::from_secs(2), &[]).is_empty());
        // The streak restarted: one hit is again not enough.
        assert!(e.observe(Micros::from_secs(3), &c).is_empty());
        let raised = e.observe(Micros::from_secs(4), &c);
        assert_eq!(raised.len(), 1);
    }

    #[test]
    fn clears_only_after_consecutive_misses() {
        let mut e = engine();
        let c = [cond("s", AlertKind::ZeroWindowBug)];
        e.observe(Micros::from_secs(1), &c);
        assert_eq!(e.observe(Micros::from_secs(2), &c).len(), 1);
        assert!(e.observe(Micros::from_secs(3), &[]).is_empty());
        assert!(e.observe(Micros::from_secs(4), &[]).is_empty());
        // A hit in between resets the miss count.
        assert!(e.observe(Micros::from_secs(5), &c).is_empty());
        assert!(e.observe(Micros::from_secs(6), &[]).is_empty());
        assert!(e.observe(Micros::from_secs(7), &[]).is_empty());
        let cleared = e.observe(Micros::from_secs(8), &[]);
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].action, AlertAction::Clear);
        assert_eq!(cleared[0].since, Micros::from_secs(2), "raise time kept");
        assert!(e.clear_session("cap", "s", Micros::from_secs(9)).is_empty());
    }

    #[test]
    fn sessions_and_kinds_are_independent() {
        let mut e = engine();
        let both = [
            cond("a", AlertKind::StalledTransfer),
            cond("b", AlertKind::StalledTransfer),
            cond("a", AlertKind::TimerGap),
        ];
        e.observe(Micros::from_secs(1), &both);
        let raised = e.observe(Micros::from_secs(2), &both);
        assert_eq!(raised.len(), 3);
        // Dropping only session b's condition clears only its alert.
        let only_a = [
            cond("a", AlertKind::StalledTransfer),
            cond("a", AlertKind::TimerGap),
        ];
        for t in 3..=4 {
            assert!(e.observe(Micros::from_secs(t), &only_a).is_empty());
        }
        let cleared = e.observe(Micros::from_secs(5), &only_a);
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].session, "b");
        assert_eq!(e.clear_session("cap", "a", Micros::from_secs(6)).len(), 2);
    }

    #[test]
    fn clear_session_drops_all_its_alerts() {
        let mut e = engine();
        let both = [
            cond("a", AlertKind::StalledTransfer),
            cond("a", AlertKind::TimerGap),
        ];
        e.observe(Micros::from_secs(1), &both);
        e.observe(Micros::from_secs(2), &both);
        let cleared = e.clear_session("cap", "a", Micros::from_secs(3));
        assert_eq!(cleared.len(), 2);
        assert!(cleared.iter().all(|a| a.action == AlertAction::Clear));
        assert!(cleared.iter().all(|a| a.detail == "session ended"));
        assert!(e.clear_session("cap", "a", Micros::from_secs(4)).is_empty());
    }

    #[test]
    fn sources_are_independent_for_the_same_session_name() {
        let mut e = engine();
        let both = [
            cond_from("left", "s", AlertKind::StalledTransfer),
            cond_from("right", "s", AlertKind::StalledTransfer),
        ];
        e.observe(Micros::from_secs(1), &both);
        let raised = e.observe(Micros::from_secs(2), &both);
        assert_eq!(raised.len(), 2, "one alert per source");
        // Ending the session on one source clears only that source's
        // alert; the sibling's stays active.
        let cleared = e.clear_session("left", "s", Micros::from_secs(3));
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].source.as_ref(), "left");
        assert_eq!(e.clear_session("right", "s", Micros::from_secs(4)).len(), 1);
    }

    #[test]
    fn duplicate_conditions_in_one_tick_count_once() {
        let mut e = engine();
        let dup = [
            cond("a", AlertKind::PeerGroupBlocking),
            cond("a", AlertKind::PeerGroupBlocking),
        ];
        // Two identical-key conditions in one tick must not raise on
        // the first tick (hits would jump straight to RAISE_AFTER).
        assert!(e.observe(Micros::from_secs(1), &dup).is_empty());
        assert_eq!(e.observe(Micros::from_secs(2), &dup).len(), 1);
    }
}
