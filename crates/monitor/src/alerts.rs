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

use std::collections::{BTreeMap, BTreeSet};
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

#[derive(Debug)]
struct KeyState {
    hits: u32,
    misses: u32,
    active: bool,
    since: Micros,
    evidence: Span,
    detail: String,
}

/// Hysteresis state key: one alert per (source, session, kind). The
/// source comes first so a single-source engine's key order matches the
/// historical (session, kind) order exactly.
type AlertKey = (Arc<str>, String, AlertKind);

/// Per-(source, session, kind) hysteresis state machine; see the module
/// docs.
#[derive(Debug, Default)]
pub struct AlertEngine {
    states: BTreeMap<AlertKey, KeyState>,
}

impl AlertEngine {
    /// Creates an engine with no alert pending or active.
    pub fn new() -> AlertEngine {
        AlertEngine::default()
    }

    /// Feeds one tick's detector conditions and returns the transitions
    /// they cause, in deterministic order (condition order for raises,
    /// key order for clears).
    pub fn observe(&mut self, now: Micros, conditions: &[Condition]) -> Vec<Alert> {
        let mut events = Vec::new();
        // The keys this tick's conditions name, borrowed from them.
        let mut present: BTreeSet<(&str, &str, AlertKind)> = BTreeSet::new();
        for c in conditions {
            let first_this_tick = present.insert((&c.source, &c.session, c.kind));
            let key = (c.source.clone(), c.session.clone(), c.kind);
            let state = self.states.entry(key).or_insert(KeyState {
                hits: 0,
                misses: 0,
                active: false,
                since: now,
                evidence: c.evidence,
                detail: String::new(),
            });
            state.misses = 0;
            if first_this_tick {
                state.hits += 1;
                state.evidence = c.evidence;
            } else {
                // A second condition of the same kind in one tick (e.g.
                // blocked by two faulty peers) widens the evidence.
                state.evidence = state.evidence.hull(c.evidence);
            }
            state.detail.clone_from(&c.detail);
            if !state.active && state.hits >= RAISE_AFTER {
                state.active = true;
                state.since = now;
                events.push(Alert {
                    at: now,
                    source: c.source.clone(),
                    action: AlertAction::Raise,
                    kind: c.kind,
                    severity: c.kind.severity(),
                    session: c.session.clone(),
                    since: now,
                    evidence: state.evidence,
                    detail: state.detail.clone(),
                });
            }
        }

        let mut dead = Vec::new();
        for (key, state) in self.states.iter_mut() {
            if present.contains(&(&*key.0, key.1.as_str(), key.2)) {
                continue;
            }
            state.hits = 0;
            state.misses += 1;
            if state.active {
                if state.misses >= CLEAR_AFTER {
                    events.push(Alert {
                        at: now,
                        source: key.0.clone(),
                        action: AlertAction::Clear,
                        kind: key.2,
                        severity: key.2.severity(),
                        session: key.1.clone(),
                        since: state.since,
                        evidence: state.evidence,
                        detail: state.detail.clone(),
                    });
                    dead.push(key.clone());
                }
            } else {
                // A pending (never-raised) streak is broken by a single
                // miss; forget it.
                dead.push(key.clone());
            }
        }
        for key in dead {
            self.states.remove(&key);
        }
        events
    }

    /// Clears every alert of a session (on one source) that ended
    /// (finalized), emitting clear transitions for the active ones. The
    /// same session name observed by a sibling source is untouched.
    pub fn clear_session(&mut self, source: &str, session: &str, now: Micros) -> Vec<Alert> {
        let keys: Vec<AlertKey> = self
            .states
            .keys()
            .filter(|(src, s, _)| src.as_ref() == source && s == session)
            .cloned()
            .collect();
        let mut events = Vec::new();
        for key in keys {
            let Some(state) = self.states.remove(&key) else {
                continue;
            };
            if state.active {
                events.push(Alert {
                    at: now,
                    source: key.0,
                    action: AlertAction::Clear,
                    kind: key.2,
                    severity: key.2.severity(),
                    session: key.1,
                    since: state.since,
                    evidence: state.evidence,
                    detail: "session ended".to_string(),
                });
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
