//! The incremental tick — conditions told to the alert engine only as
//! they appear and vanish, stalls as deadlines, the peer-group pass
//! re-run only when a group that can pair changes — against the
//! per-tick pass it replaced, as properties. `reference` keeps that
//! pass: the alert engine's `observe` and `clear_session` verbatim, and
//! the row sweep, which gathered every standing condition at every tick
//! and moved each row's stall mark.
//!
//! Two properties:
//! * the engine's [`observe`](AlertEngine::observe) against the
//!   reference's, over ticks of conditions drawn from every kind, two
//!   sources and three sessions, with duplicate keys in one tick, empty
//!   and overlapping evidence, and sessions cleared between ticks;
//! * a watch's ticks against the reference sweep over a model of its
//!   rows: 1–2 sources and 1–6 connections in up to 3 sender groups,
//!   refreshed with condition sets drawn from every kind (duplicates
//!   within a tick, and kinds the stall and the peer-group pass also
//!   raise), data bytes that move, stand still long enough to stall or
//!   go back, quarantine, a re-elected data sender that changes the
//!   session id, the pauses and losses of the peer-group property
//!   (`peer_props.rs`), forgets (a finalized connection, its final
//!   session sometimes the other end's, which may then reopen under a
//!   new ordinal), idle ticks, and tick intervals on both sides of the
//!   stall threshold.

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use tdat::{PartialAnalysis, SeriesBuilder, SeriesSet, Verdict};
use tdat_timeset::{Micros, Span};
use tdat_trace::{ConnKey, ConnProfile, Endpoint, TrackerConfig};

use crate::alerts::{Alert, AlertEngine, AlertKind, Condition, MIN_PAUSE, STALL_AFTER};
use crate::engine::{session_id, Fleet, SourceScope};
use crate::peer_props::{idle_spans, reference::find_peer_group_blocking_among, router, trouble};
use crate::peer_props::{BASE, GAPS, LOSSES};

/// The per-tick pass as it was before ticks cost what changed.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    use tdat_timeset::{Micros, Span};

    use crate::alerts::{Alert, AlertAction, AlertKind, Condition, CLEAR_AFTER, RAISE_AFTER};

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
}

/// Evidence a generated condition carries: two extents that overlap,
/// one apart, and two empty spans, which `Span::hull` skips in order.
const EVIDENCE: [Span; 4] = [
    Span::from_micros(0, 1_000_000),
    Span::from_micros(500_000, 9_000_000),
    Span::from_micros(3_000_000, 3_000_000),
    Span::from_micros(7_000_000, 2_000_000),
];

/// Details a generated condition carries.
const DETAILS: [&str; 2] = ["first", "second"];

/// One condition as generated: `(kind, evidence, detail)`, each an
/// index.
type Spec = (usize, usize, usize);

fn condition_spec() -> impl Strategy<Value = Spec> {
    (
        0usize..AlertKind::ALL.len(),
        0usize..EVIDENCE.len(),
        0usize..DETAILS.len(),
    )
}

/// The condition `spec` of `session` on `source`.
fn condition(source: &Arc<str>, session: &str, spec: Spec) -> Condition {
    let (kind, evidence, detail) = spec;
    Condition {
        source: source.clone(),
        session: session.to_string(),
        kind: AlertKind::ALL[kind],
        evidence: EVIDENCE[evidence],
        detail: DETAILS[detail].to_string(),
    }
}

/// A tick of the engine property: its conditions as `(source, session,
/// spec)`, and the `(source, session)` cleared after it.
type EngineTick = (Vec<(usize, usize, Spec)>, Vec<(usize, usize)>);

fn engine_tick() -> impl Strategy<Value = EngineTick> {
    (
        prop::collection::vec((0usize..2, 0usize..3, condition_spec()), 0..6),
        prop::collection::vec((0usize..2, 0usize..3), 0..2),
    )
}

/// Data bytes a refresh can find, so a transfer moves, stands still or
/// (re-elected) goes back.
const BYTES: [u64; 4] = [0, 1_000, 2_000, 3_000];

/// One refresh as generated: `(conditions, bytes, quarantine roll,
/// sender re-elected, idle shape, gap, loss kind, loss length, start
/// offset)`.
type Refresh = (
    Vec<Spec>,
    usize,
    usize,
    bool,
    usize,
    usize,
    usize,
    usize,
    usize,
);

fn refresh() -> impl Strategy<Value = Refresh> {
    (
        prop::collection::vec(condition_spec(), 0..4),
        0usize..BYTES.len(),
        0usize..8,
        (0usize..7).prop_map(|roll| roll == 0),
        0usize..8,
        0usize..5,
        0usize..5,
        0usize..5,
        0usize..3,
    )
}

/// What happens to a connection at one step: refreshed at the tick, or
/// finalized before it, its final session the other end's when `true`.
#[derive(Debug, Clone)]
enum Op {
    Refresh(Refresh),
    Forget(bool),
}

/// Four refreshes for each forget.
fn op() -> impl Strategy<Value = Op> {
    (0usize..5, refresh(), any::<bool>()).prop_map(|(roll, refresh, flipped)| match roll {
        0 => Op::Forget(flipped),
        _ => Op::Refresh(refresh),
    })
}

/// A connection: `(source, sender group, port)`.
type Conn = (usize, usize, u16);

/// Its endpoints, the data sender first: group `g`'s router, or the
/// next group's when re-elected.
fn endpoints(conn: Conn, groups: usize, flipped: bool) -> (Endpoint, Endpoint) {
    let (_, g, port) = conn;
    let ends = ((router(g), 179), (router((g + 1) % groups), 40_000 + port));
    match flipped {
        true => (ends.1, ends.0),
        false => ends,
    }
}

/// The analysis a refresh finds.
fn analysis(conn: Conn, groups: usize, refresh: &Refresh) -> PartialAnalysis {
    let &(_, bytes, quarantine, flipped, shape, gap, kind, len, offset) = refresh;
    let (sender, receiver) = endpoints(conn, groups, flipped);
    let mut series = SeriesBuilder::new(Span::from_micros(0, BASE + 300_000_000), 0, 0);
    idle_spans(
        &mut series,
        shape,
        GAPS[gap],
        BASE + offset as i64 * 3_000_000,
    );
    trouble(&mut series, kind, LOSSES[len]);
    let series = series.build();
    PartialAnalysis {
        profile: ConnProfile {
            data_bytes: BYTES[bytes],
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

/// A row of the reference's model: what the per-tick sweep read of a
/// cached connection.
struct Row {
    source: Arc<str>,
    session: String,
    conditions: Vec<Condition>,
    ends: (Endpoint, Endpoint),
    series: SeriesSet,
    data_bytes: u64,
    quarantined: bool,
    mark: Option<(u64, Micros)>,
}

/// The reference: rows by `(source, ordinal)`, swept whole at every
/// tick.
#[derive(Default)]
struct Model {
    rows: std::collections::BTreeMap<(usize, u64), Row>,
    alerts: reference::AlertEngine,
}

impl Model {
    /// A refresh of connection `(source, ordinal)`: the session id is
    /// kept while the endpoints stay, the stall mark always.
    fn refresh(
        &mut self,
        at: (usize, u64),
        name: &Arc<str>,
        analysis: PartialAnalysis,
        specs: &[Spec],
    ) {
        let old = self.rows.remove(&at);
        let ends = (analysis.sender, analysis.receiver);
        let session = match &old {
            Some(old) if old.ends == ends => old.session.clone(),
            _ => session_id(analysis.sender, analysis.receiver),
        };
        let conditions = specs
            .iter()
            .map(|&spec| condition(name, &session, spec))
            .collect();
        self.rows.insert(
            at,
            Row {
                source: name.clone(),
                session,
                conditions,
                ends,
                series: analysis.series,
                data_bytes: analysis.profile.data_bytes,
                quarantined: analysis.verdict.is_quarantined(),
                mark: old.and_then(|old| old.mark),
            },
        );
    }

    /// One tick at `at`: the row sweep, the pairwise peer-group scan,
    /// and the per-tick alert update.
    fn tick(&mut self, at: Micros) -> Vec<Alert> {
        let mut out = Vec::new();
        for row in self.rows.values_mut() {
            let mut stalled = None;
            if !row.quarantined {
                let bytes = row.data_bytes;
                let mark = row.mark.get_or_insert((bytes, at));
                if bytes > mark.0 {
                    *mark = (bytes, at);
                } else if bytes > 0 && at - mark.1 >= STALL_AFTER {
                    stalled = Some(mark.1);
                }
            }
            out.extend(row.conditions.iter().cloned());
            if let Some(since) = stalled {
                out.push(Condition {
                    source: row.source.clone(),
                    session: row.session.clone(),
                    kind: AlertKind::StalledTransfer,
                    evidence: Span::new(since, at),
                    detail: format!(
                        "no data progress for {:.0} s ({} bytes transferred)",
                        (at - since).as_secs_f64(),
                        row.data_bytes
                    ),
                });
            }
        }
        let rows: Vec<&Row> = self.rows.values().collect();
        let members: Vec<(Ipv4Addr, &SeriesSet)> =
            rows.iter().map(|r| (r.ends.0 .0, &r.series)).collect();
        for (blocked, faulty, incidents) in find_peer_group_blocking_among(&members, MIN_PAUSE) {
            let (blocked, faulty) = (rows[blocked], rows[faulty]);
            if blocked.quarantined || faulty.quarantined {
                continue;
            }
            let Some(last) = incidents.last() else {
                continue;
            };
            let cross = if blocked.source == faulty.source {
                String::new()
            } else {
                format!(" [source {}]", faulty.source)
            };
            out.push(Condition {
                source: blocked.source.clone(),
                session: blocked.session.clone(),
                kind: AlertKind::PeerGroupBlocking,
                evidence: last.pause,
                detail: format!(
                    "paused behind faulty group member {}{} ({:.0} s overlap with its losses)",
                    faulty.session,
                    cross,
                    last.overlap.duration().as_secs_f64()
                ),
            });
        }
        self.alerts.observe(at, &out)
    }
}

/// The watch under test and its reference, driven in step.
struct Watch {
    names: Vec<Arc<str>>,
    groups: usize,
    scopes: Vec<SourceScope>,
    fleet: Fleet,
    model: Model,
    /// Each connection's ordinal while open.
    open: Vec<Option<u64>>,
    /// The next ordinal of each source.
    next: Vec<u64>,
    at: Micros,
}

impl Watch {
    fn new(sources: usize, groups: usize, conns: usize) -> Watch {
        let names: Vec<Arc<str>> = ["a", "b"][..sources]
            .iter()
            .map(|&n| Arc::from(n))
            .collect();
        Watch {
            scopes: names
                .iter()
                .enumerate()
                .map(|(i, name)| SourceScope::new(name.clone(), i, TrackerConfig::streaming()))
                .collect(),
            names,
            groups,
            fleet: Fleet::default(),
            model: Model::default(),
            open: vec![None; conns],
            next: vec![0; sources],
            at: Micros::ZERO,
        }
    }

    fn key(&self, conn: Conn) -> ConnKey {
        let (a, b) = endpoints(conn, self.groups, false);
        ConnKey::of_endpoints(a, b)
    }

    /// Finalizes connection `c` between ticks as the monitor does: its
    /// tick state goes, then the alerts of the session it last
    /// published and of its final session are cleared.
    fn forget(&mut self, c: usize, conn: Conn, flipped: bool) -> Result<(), TestCaseError> {
        let Some(ordinal) = self.open[c].take() else {
            return Ok(());
        };
        let name = self.names[conn.0].clone();
        let (sender, receiver) = endpoints(conn, self.groups, flipped);
        let last = session_id(sender, receiver);
        let at = self.at + Micros(1);
        let key = self.key(conn);
        let stale = self.scopes[conn.0].forget(key, &mut self.fleet);
        let row = self.model.rows.remove(&(conn.0, ordinal));
        prop_assert_eq!(stale.as_ref(), row.as_ref().map(|row| &row.session));
        let mut actual = Vec::new();
        let mut expected = Vec::new();
        if let Some(stale) = stale.filter(|stale| *stale != last) {
            actual.extend(self.fleet.alerts.clear_session(&name, &stale, at));
            expected.extend(self.model.alerts.clear_session(&name, &stale, at));
        }
        actual.extend(self.fleet.alerts.clear_session(&name, &last, at));
        expected.extend(self.model.alerts.clear_session(&name, &last, at));
        prop_assert_eq!(actual, expected);
        Ok(())
    }

    /// One tick at `at` refreshing `refreshes`, in ordinal order.
    fn tick(
        &mut self,
        at: Micros,
        refreshes: &[(usize, Conn, &Refresh)],
    ) -> Result<(), TestCaseError> {
        self.at = at;
        let mut work: Vec<(usize, u64, Conn, &Refresh)> = Vec::new();
        for &(c, conn, refresh) in refreshes {
            let ordinal = *self.open[c].get_or_insert_with(|| {
                self.next[conn.0] += 1;
                self.next[conn.0] - 1
            });
            work.push((conn.0, ordinal, conn, refresh));
        }
        work.sort_by_key(|&(source, ordinal, ..)| (source, ordinal));
        self.fleet.begin(at);
        for (source, ordinal, conn, refresh) in work {
            let specs = &refresh.0;
            let key = self.key(conn);
            self.scopes[source].store_with(
                key,
                ordinal,
                analysis(conn, self.groups, refresh),
                0,
                &mut self.fleet,
                |_, name, session| {
                    specs
                        .iter()
                        .map(|&spec| condition(name, session, spec))
                        .collect()
                },
            );
            let name = self.names[source].clone();
            self.model.refresh(
                (source, ordinal),
                &name,
                analysis(conn, self.groups, refresh),
                specs,
            );
        }
        let (_, actual) = self.fleet.conclude(&mut self.scopes);
        let expected = self.model.tick(at);
        prop_assert_eq!(actual, expected, "tick at {:?}", at);
        Ok(())
    }
}

proptest! {
    #[test]
    fn observe_matches_the_per_tick_engine(ticks in prop::collection::vec(engine_tick(), 1..24)) {
        let sources: [Arc<str>; 2] = [Arc::from("a"), Arc::from("b")];
        let sessions = ["s0", "s1", "s2"];
        let mut engine = AlertEngine::new();
        let mut reference = reference::AlertEngine::default();
        for (n, (conditions, cleared)) in ticks.iter().enumerate() {
            let at = Micros::from_secs(10 * (n as i64 + 1));
            let conditions: Vec<Condition> = conditions
                .iter()
                .map(|&(source, session, spec)| condition(&sources[source], sessions[session], spec))
                .collect();
            prop_assert_eq!(engine.observe(at, &conditions), reference.observe(at, &conditions));
            for &(source, session) in cleared {
                let at = at + Micros(1);
                prop_assert_eq!(
                    engine.clear_session(&sources[source], sessions[session], at),
                    reference.clear_session(&sources[source], sessions[session], at)
                );
            }
        }
    }

    #[test]
    fn incremental_ticks_match_the_per_tick_sweep(
        sources in 1usize..3,
        groups in 1usize..4,
        conns in prop::collection::vec((0usize..2, 0usize..3), 1..7),
        interval in (0usize..4).prop_map(|i| [10i64, 20, 30, 61][i]),
        steps in prop::collection::vec(prop::collection::vec((0usize..6, op()), 0..4), 1..20),
    ) {
        let conns: Vec<Conn> = conns
            .iter()
            .enumerate()
            .map(|(m, &(source, group))| (source % sources, group % groups, m as u16))
            .collect();
        let mut watch = Watch::new(sources, groups, conns.len());
        // Four idle ticks at the end, so pending clears come due.
        let idle = vec![Vec::new(); 4];
        for (n, step) in steps.iter().chain(&idle).enumerate() {
            let at = Micros::from_secs(interval * (n as i64 + 1));
            for (c, op) in step {
                if let Op::Forget(flipped) = op {
                    let c = c % conns.len();
                    watch.forget(c, conns[c], *flipped)?;
                }
            }
            let mut refreshes: Vec<(usize, Conn, &Refresh)> = Vec::new();
            for (c, op) in step {
                let c = c % conns.len();
                if let Op::Refresh(refresh) = op {
                    if refreshes.iter().all(|&(other, ..)| other != c) {
                        refreshes.push((c, conns[c], refresh));
                    }
                }
            }
            watch.tick(at, &refreshes)?;
        }
        // The end of the watch finalizes every connection still open.
        for (c, &conn) in conns.iter().enumerate() {
            watch.forget(c, conn, false)?;
        }
    }
}
