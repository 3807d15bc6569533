//! Per-connection tracking: the one way frames become connections.
//!
//! [`ConnectionTracker`] consumes a trace one frame at a time,
//! demultiplexes frames into per-connection state, and finalizes each
//! connection by its [`TrackerConfig`]: [`batch`](TrackerConfig::batch)
//! holds every connection to [`finish`](ConnectionTracker::finish);
//! [`streaming`](TrackerConfig::streaming) also finalizes one when it
//! closes (FIN in both directions or RST, after a grace period for
//! straggling retransmissions) or goes idle, and caps how many are
//! open. [`extract_connections`] is the batch tracker over a slice.
//!
//! Frame payloads are never retained (callers that need payload bytes,
//! like BGP reassembly, consume them per frame before handing the frame
//! to the tracker); what is held is one fixed-size metadata record per
//! frame of each *open* connection. Under the batch policy that is
//! every frame of the trace; under the streaming policy, only the
//! connections still open.

use std::collections::HashMap;

use tdat_packet::{FrameLike, TcpFlags, TcpFrame};
use tdat_timeset::Micros;

use crate::conn::{build_connection, ConnKey, FrameMeta, TcpConnection};

/// Splits a frame trace into connections and profiles each one, in
/// order of first appearance: the [`batch`](TrackerConfig::batch)
/// tracker's ingest and finish, so a slice groups exactly as a capture
/// streamed through the engine does.
pub fn extract_connections(frames: &[TcpFrame]) -> Vec<TcpConnection> {
    let mut tracker = ConnectionTracker::new(TrackerConfig::batch());
    for frame in frames {
        tracker.ingest(frame);
    }
    tracker
        .finish()
        .into_iter()
        .map(|fin| fin.connection)
        .collect()
}

/// When a tracked connection is considered finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerConfig {
    /// Finalize a connection when no frame has been seen for this long
    /// (`None` disables idle finalization).
    pub idle_timeout: Option<Micros>,
    /// Finalize a connection this long after it closed (both FINs or a
    /// RST), keeping straggling retransmissions attached (`None`
    /// disables close finalization).
    pub close_grace: Option<Micros>,
    /// Hard cap on simultaneously tracked connections (`None` is
    /// unbounded). A SYN flood otherwise grows the open map without
    /// limit; past the cap the least-recently-active connection is
    /// finalized early (LRU eviction) and counted in
    /// [`evicted_connections`](ConnectionTracker::evicted_connections).
    pub max_connections: Option<usize>,
}

/// Default for [`TrackerConfig::max_connections`] in streaming mode: a
/// real vantage point tracks a handful of BGP sessions; thousands of
/// simultaneous connections only happen under address-spoofing floods.
pub const DEFAULT_MAX_CONNECTIONS: usize = 8_192;

impl Default for TrackerConfig {
    fn default() -> TrackerConfig {
        TrackerConfig::streaming()
    }
}

impl TrackerConfig {
    /// Streaming defaults: close + 5 s grace, 60 s idle timeout,
    /// [`DEFAULT_MAX_CONNECTIONS`] tracked connections.
    pub fn streaming() -> TrackerConfig {
        TrackerConfig {
            idle_timeout: Some(Micros::from_secs(60)),
            close_grace: Some(Micros::from_secs(5)),
            max_connections: Some(DEFAULT_MAX_CONNECTIONS),
        }
    }

    /// Never finalizes early: every connection is held open until
    /// [`finish`](ConnectionTracker::finish), grouping frames exactly
    /// like the batch extractor. Memory grows with the whole trace's
    /// segment count.
    pub fn batch() -> TrackerConfig {
        TrackerConfig {
            idle_timeout: None,
            close_grace: None,
            max_connections: None,
        }
    }
}

/// A connection the tracker finished building.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalizedConnection {
    /// 0-based order in which the connection first appeared.
    pub ordinal: u64,
    /// The opaque scope tag of the tracker that built this connection
    /// (see [`ConnectionTracker::scoped`]); 0 for unscoped trackers.
    pub scope: u64,
    /// The connection's normalized key.
    pub key: ConnKey,
    /// The built connection, identical to what the batch extractor
    /// would produce from the same frames.
    pub connection: TcpConnection,
}

#[derive(Debug)]
struct ConnState {
    ordinal: u64,
    metas: Vec<FrameMeta>,
    last_seen: Micros,
    fin_low: bool,
    fin_high: bool,
    closed_at: Option<Micros>,
    /// New frames since the last [`ConnectionTracker::take_dirty`].
    dirty: bool,
}

impl ConnState {
    fn fresh(ordinal: u64, timestamp: Micros) -> ConnState {
        ConnState {
            ordinal,
            metas: Vec::new(),
            last_seen: timestamp,
            fin_low: false,
            fin_high: false,
            closed_at: None,
            dirty: true,
        }
    }
}

/// Streaming connection demultiplexer: ingests frames one at a time,
/// groups them per connection, and finalizes each connection at
/// close/idle (per [`TrackerConfig`]) or at end of capture.
#[derive(Debug)]
pub struct ConnectionTracker {
    config: TrackerConfig,
    /// Opaque tag copied onto every [`FinalizedConnection`]; lets a
    /// caller running several trackers side by side (one per capture
    /// source) attribute finalizations without extra bookkeeping.
    scope: u64,
    open: HashMap<ConnKey, ConnState>,
    next_ordinal: u64,
    frames_seen: usize,
    now: Micros,
    last_sweep: Micros,
    evicted: u64,
}

/// How often (in trace time) expiry conditions are re-checked.
const SWEEP_INTERVAL: Micros = Micros::from_millis(250);

impl ConnectionTracker {
    /// Creates a tracker with the given finalization policy.
    pub fn new(config: TrackerConfig) -> ConnectionTracker {
        ConnectionTracker::scoped(config, 0)
    }

    /// Creates a tracker whose finalized connections carry `scope` —
    /// the multi-source hook: one tracker per capture source, each
    /// tagged so downstream consumers can attribute every
    /// [`FinalizedConnection`] to its origin.
    pub fn scoped(config: TrackerConfig, scope: u64) -> ConnectionTracker {
        ConnectionTracker {
            config,
            scope,
            open: HashMap::new(),
            next_ordinal: 0,
            frames_seen: 0,
            now: Micros::ZERO,
            last_sweep: Micros::ZERO,
            evicted: 0,
        }
    }

    /// The scope tag stamped onto finalized connections.
    pub fn scope(&self) -> u64 {
        self.scope
    }

    /// Connections currently held open.
    pub fn open_connections(&self) -> usize {
        self.open.len()
    }

    /// Total frames ingested so far.
    pub fn frames_seen(&self) -> usize {
        self.frames_seen
    }

    /// Connections finalized early because the
    /// [`max_connections`](TrackerConfig::max_connections) cap tripped.
    pub fn evicted_connections(&self) -> u64 {
        self.evicted
    }

    /// Ingests one frame (in capture order), returning any connections
    /// finalized by the advance of trace time — by ordinal, never the
    /// connection the frame belongs to.
    ///
    /// The frame's global ingest index becomes its segments'
    /// `frame_index`, matching the batch extractor's indices into the
    /// full trace slice.
    pub fn ingest(&mut self, frame: &impl FrameLike) -> Vec<FinalizedConnection> {
        let index = self.frames_seen;
        self.frames_seen += 1;
        let timestamp = frame.timestamp();
        self.now = self.now.max(timestamp);

        let key = ConnKey::of(frame);
        let next_ordinal = &mut self.next_ordinal;
        let state = self.open.entry(key).or_insert_with(|| {
            let ordinal = *next_ordinal;
            *next_ordinal += 1;
            ConnState::fresh(ordinal, timestamp)
        });
        state.metas.push(FrameMeta::of(frame, index));
        state.last_seen = state.last_seen.max(timestamp);
        state.dirty = true;
        let flags = frame.tcp().flags;
        if flags.contains(TcpFlags::FIN) {
            if frame.src() == key.a {
                state.fin_low = true;
            } else {
                state.fin_high = true;
            }
        }
        if flags.contains(TcpFlags::RST) || (state.fin_low && state.fin_high) {
            state.closed_at.get_or_insert(timestamp);
        }

        let mut finalized = if self.now - self.last_sweep >= SWEEP_INTERVAL {
            self.last_sweep = self.now;
            self.sweep(Some(key))
        } else {
            Vec::new()
        };
        finalized.extend(self.evict_over_cap(key));
        finalized
    }

    /// Enforces [`TrackerConfig::max_connections`]: finalizes the
    /// least-recently-active connections (never `keep`, the one just
    /// touched) until the open map fits the cap. Evicted connections
    /// are complete for the frames they received — in-flight state is
    /// built with the normal finalization path, not discarded.
    fn evict_over_cap(&mut self, keep: ConnKey) -> Vec<FinalizedConnection> {
        let Some(cap) = self.config.max_connections else {
            return Vec::new();
        };
        let cap = cap.max(1);
        if self.open.len() <= cap {
            return Vec::new();
        }
        let mut candidates: Vec<(Micros, u64, ConnKey)> = self
            .open
            .iter()
            .filter(|(k, _)| **k != keep)
            .map(|(k, s)| (s.last_seen, s.ordinal, *k))
            .collect();
        candidates.sort_unstable_by_key(|(last_seen, ordinal, _)| (*last_seen, *ordinal));
        let excess = self.open.len() - cap;
        let mut out: Vec<FinalizedConnection> = candidates
            .into_iter()
            .take(excess)
            .filter_map(|(_, _, key)| {
                let state = self.open.remove(&key)?;
                self.evicted += 1;
                Some(FinalizedConnection {
                    ordinal: state.ordinal,
                    scope: self.scope,
                    key,
                    connection: build_connection(&state.metas),
                })
            })
            .collect();
        out.sort_unstable_by_key(|f| f.ordinal);
        out
    }

    /// Finalizes every connection whose close grace or idle timeout has
    /// expired, except `keep` (the connection a frame was just appended
    /// to — by definition not idle, and still within grace).
    fn sweep(&mut self, keep: Option<ConnKey>) -> Vec<FinalizedConnection> {
        let now = self.now;
        let expired = |s: &ConnState| {
            let closed = match (s.closed_at, self.config.close_grace) {
                (Some(at), Some(grace)) => now.saturating_sub(at) >= grace,
                _ => false,
            };
            let idle = match self.config.idle_timeout {
                Some(timeout) => now.saturating_sub(s.last_seen) >= timeout,
                None => false,
            };
            closed || idle
        };
        let mut keys: Vec<ConnKey> = self
            .open
            .iter()
            .filter(|(k, s)| Some(**k) != keep && expired(s))
            .map(|(k, _)| *k)
            .collect();
        // Deterministic output order regardless of hash-map iteration.
        keys.sort_unstable_by_key(|k| self.open[k].ordinal);
        keys.into_iter()
            .map(|key| {
                let state = self.open.remove(&key).expect("selected above");
                FinalizedConnection {
                    ordinal: state.ordinal,
                    scope: self.scope,
                    key,
                    connection: build_connection(&state.metas),
                }
            })
            .collect()
    }

    /// Builds a point-in-time snapshot of every *open* connection, by
    /// ordinal, without finalizing anything: the tracker keeps all its
    /// state and later frames keep accumulating. This is the
    /// partial-finalize path a live monitor uses to diagnose
    /// connections that have not closed yet.
    ///
    /// Each snapshot connection is built with the same code path as a
    /// finalized one, so it equals what [`finish`](Self::finish) would
    /// return if the capture ended right now.
    pub fn snapshot(&self) -> Vec<FinalizedConnection> {
        let mut open: Vec<(&ConnKey, &ConnState)> = self.open.iter().collect();
        open.sort_unstable_by_key(|(_, s)| s.ordinal);
        open.into_iter()
            .map(|(key, state)| FinalizedConnection {
                ordinal: state.ordinal,
                scope: self.scope,
                key: *key,
                connection: build_connection(&state.metas),
            })
            .collect()
    }

    /// Builds a snapshot of one open connection (see
    /// [`snapshot`](Self::snapshot)), or `None` if `key` is not open.
    pub fn snapshot_of(&self, key: ConnKey) -> Option<FinalizedConnection> {
        self.open.get(&key).map(|state| FinalizedConnection {
            ordinal: state.ordinal,
            scope: self.scope,
            key,
            connection: build_connection(&state.metas),
        })
    }

    /// The open connection `key` as its first `frames` frames built it —
    /// what [`snapshot_of`](Self::snapshot_of) returned when the tracker
    /// had seen that many of its frames: a connection's frames are only
    /// ever appended to while it is open. `None` when `key` is not open
    /// or has not seen `frames` frames (or `frames` is 0).
    pub fn snapshot_first(&self, key: ConnKey, frames: usize) -> Option<TcpConnection> {
        let metas = self.open.get(&key)?.metas.get(..frames)?;
        (!metas.is_empty()).then(|| build_connection(metas))
    }

    /// Keys of open connections that received frames since the last
    /// `take_dirty` call (or since they opened), by ordinal, clearing
    /// their dirty marks. The incremental-monitor hook: a tick only
    /// needs to re-snapshot these; every other open connection is
    /// byte-identical to its previous snapshot.
    pub fn take_dirty(&mut self) -> Vec<ConnKey> {
        let mut dirty: Vec<(u64, ConnKey)> = self
            .open
            .iter_mut()
            .filter(|(_, s)| s.dirty)
            .map(|(k, s)| {
                s.dirty = false;
                (s.ordinal, *k)
            })
            .collect();
        dirty.sort_unstable();
        dirty.into_iter().map(|(_, k)| k).collect()
    }

    /// The ordinal of an open connection, or `None` if `key` is not
    /// open.
    pub fn ordinal_of(&self, key: ConnKey) -> Option<u64> {
        self.open.get(&key).map(|s| s.ordinal)
    }

    /// The latest trace timestamp seen so far.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Flushes all remaining open connections (end of trace), by
    /// ordinal.
    pub fn finish(mut self) -> Vec<FinalizedConnection> {
        let mut rest: Vec<(ConnKey, ConnState)> = self.open.drain().collect();
        rest.sort_unstable_by_key(|(_, s)| s.ordinal);
        rest.into_iter()
            .map(|(key, state)| FinalizedConnection {
                ordinal: state.ordinal,
                scope: self.scope,
                key,
                connection: build_connection(&state.metas),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_packet::FrameBuilder;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// Handshake + one data/ACK exchange between `a` and `b`, starting
    /// at `t0`.
    fn exchange(a: Ipv4Addr, b: Ipv4Addr, t0: i64) -> Vec<TcpFrame> {
        vec![
            FrameBuilder::new(a, b)
                .at(Micros(t0))
                .ports(179, 40000)
                .seq(100)
                .flags(TcpFlags::SYN)
                .build(),
            FrameBuilder::new(b, a)
                .at(Micros(t0 + 100))
                .ports(40000, 179)
                .seq(900)
                .ack_to(101)
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .build(),
            FrameBuilder::new(a, b)
                .at(Micros(t0 + 200))
                .ports(179, 40000)
                .seq(101)
                .ack_to(901)
                .build(),
            FrameBuilder::new(a, b)
                .at(Micros(t0 + 300))
                .ports(179, 40000)
                .seq(101)
                .ack_to(901)
                .payload(vec![0; 500])
                .build(),
            FrameBuilder::new(b, a)
                .at(Micros(t0 + 400))
                .ports(40000, 179)
                .seq(901)
                .ack_to(601)
                .build(),
        ]
    }

    #[test]
    fn idle_timeout_finalizes_between_connections() {
        let mut frames = exchange(addr(1), addr(2), 0);
        // Second connection starts two minutes later: the first must be
        // finalized by idle expiry before the trace ends.
        frames.extend(exchange(addr(3), addr(2), 120_000_000));
        let mut tracker = ConnectionTracker::new(TrackerConfig::streaming());
        let mut early = Vec::new();
        for f in &frames {
            early.extend(tracker.ingest(f));
        }
        assert_eq!(early.len(), 1, "first connection finalized mid-trace");
        assert_eq!(early[0].ordinal, 0);
        assert_eq!(tracker.open_connections(), 1);
        let rest = tracker.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].ordinal, 1);
    }

    #[test]
    fn close_grace_keeps_straggler_attached() {
        let a = addr(1);
        let b = addr(2);
        let mut frames = exchange(a, b, 0);
        // FIN in both directions…
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(1_000))
                .ports(179, 40000)
                .seq(601)
                .ack_to(901)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .build(),
        );
        frames.push(
            FrameBuilder::new(b, a)
                .at(Micros(1_100))
                .ports(40000, 179)
                .seq(901)
                .ack_to(602)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .build(),
        );
        // …then a straggling retransmission within the grace period.
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(500_000))
                .ports(179, 40000)
                .seq(101)
                .ack_to(901)
                .payload(vec![0; 500])
                .build(),
        );
        // An unrelated connection advances trace time past the grace.
        frames.extend(exchange(addr(9), addr(2), 30_000_000));
        let mut tracker = ConnectionTracker::new(TrackerConfig::streaming());
        let mut finalized = Vec::new();
        for f in &frames {
            finalized.extend(tracker.ingest(f));
        }
        assert_eq!(finalized.len(), 1);
        let conn = &finalized[0].connection;
        assert_eq!(conn.profile.frames, 8, "straggler included");
        assert_eq!(conn.profile.end, Micros(500_000));
    }

    #[test]
    fn rst_closes_connection() {
        let a = addr(1);
        let b = addr(2);
        let mut frames = exchange(a, b, 0);
        frames.push(
            FrameBuilder::new(b, a)
                .at(Micros(2_000))
                .ports(40000, 179)
                .seq(901)
                .flags(TcpFlags::RST)
                .build(),
        );
        frames.extend(exchange(addr(9), addr(2), 20_000_000));
        let mut tracker = ConnectionTracker::new(TrackerConfig::streaming());
        let mut finalized = Vec::new();
        for f in &frames {
            finalized.extend(tracker.ingest(f));
        }
        assert_eq!(finalized.len(), 1);
        assert!(finalized[0].connection.profile.reset);
    }

    #[test]
    fn snapshot_equals_finish_and_does_not_disturb_tracking() {
        let x = exchange(addr(1), addr(2), 0);
        let y = exchange(addr(3), addr(2), 50);
        let mut frames: Vec<TcpFrame> = x.into_iter().chain(y).collect();
        frames.sort_by_key(|f| f.timestamp);
        let mut tracker = ConnectionTracker::new(TrackerConfig::batch());
        // Snapshot halfway through: both connections open and partial.
        let half = frames.len() / 2;
        for f in &frames[..half] {
            assert!(tracker.ingest(f).is_empty());
        }
        let mid = tracker.snapshot();
        assert_eq!(mid.len(), tracker.open_connections());
        {
            let mut twin = ConnectionTracker::new(TrackerConfig::batch());
            for f in &frames[..half] {
                twin.ingest(f);
            }
            assert_eq!(mid, twin.finish(), "snapshot == finish at the same point");
        }
        // Snapshotting must not perturb subsequent tracking.
        for f in &frames[half..] {
            tracker.ingest(f);
        }
        let full = tracker.snapshot();
        assert_eq!(full, tracker.finish());
    }

    #[test]
    fn connection_cap_evicts_least_recently_active() {
        // Four connections opened in order, oldest going quiet first;
        // a cap of 2 must evict the two least-recently-active ones.
        let mut frames = Vec::new();
        for i in 0..4u8 {
            frames.extend(exchange(addr(10 + i), addr(2), i as i64 * 1_000));
        }
        frames.sort_by_key(|f| f.timestamp);
        let mut tracker = ConnectionTracker::new(TrackerConfig {
            max_connections: Some(2),
            ..TrackerConfig::batch()
        });
        let mut evicted = Vec::new();
        for f in &frames {
            evicted.extend(tracker.ingest(f));
        }
        assert_eq!(tracker.open_connections(), 2);
        assert_eq!(tracker.evicted_connections(), 2);
        assert_eq!(
            evicted.iter().map(|f| f.ordinal).collect::<Vec<_>>(),
            vec![0, 1],
            "oldest-activity connections evicted first"
        );
        let rest = tracker.finish();
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn eviction_does_not_corrupt_in_flight_connections() {
        // A long-lived "victim-adjacent" connection keeps receiving
        // frames while a flood of short connections churns through the
        // cap: the survivor's finalized form must equal the batch
        // extraction of exactly its own frames.
        let a = addr(1);
        let b = addr(2);
        let keeper = exchange(a, b, 0);
        let mut tracker = ConnectionTracker::new(TrackerConfig {
            max_connections: Some(3),
            ..TrackerConfig::batch()
        });
        let mut keeper_global: Vec<TcpFrame> = Vec::new();
        // Interleave: one keeper frame, then a burst of single-SYN
        // flood connections that overflows the cap. The flood frames
        // are captured marginally *before* the keeper's latest frame,
        // so the keeper is always the most recently active connection
        // and must never be the LRU victim.
        for (i, kf) in keeper.iter().enumerate() {
            keeper_global.push(kf.clone());
            tracker.ingest(kf);
            for j in 0..5u8 {
                let syn = FrameBuilder::new(addr(100 + (i as u8 * 5) + j), addr(2))
                    .at(Micros(kf.timestamp.0 - 1))
                    .ports(179, 45_000)
                    .seq(7)
                    .flags(TcpFlags::SYN)
                    .build();
                tracker.ingest(&syn);
            }
        }
        assert!(tracker.evicted_connections() > 0, "flood must trip the cap");
        let finished = tracker.finish();
        let keeper_final = finished
            .iter()
            .find(|f| f.key == ConnKey::of(&keeper[0]))
            .expect("keeper never evicted (always most recently active)");
        // Rebuild the keeper from its frames alone: segment count,
        // profile and timing must be untouched by the churn around it.
        let batch = extract_connections(&keeper_global);
        let want = batch
            .iter()
            .find(|c| (c.sender.0, c.receiver.0) == (a, b) || (c.sender.0, c.receiver.0) == (b, a))
            .expect("keeper in batch extraction");
        assert_eq!(keeper_final.connection.segments.len(), want.segments.len());
        assert_eq!(keeper_final.connection.profile, want.profile);
    }

    #[test]
    fn frame_indices_are_global() {
        let x = exchange(addr(1), addr(2), 0);
        let y = exchange(addr(3), addr(2), 50);
        let mut frames: Vec<TcpFrame> = x.into_iter().chain(y).collect();
        frames.sort_by_key(|f| f.timestamp);
        let conns = extract_connections(&frames);
        assert_eq!(conns.len(), 2);
        // Every segment points back at the frame it came from, by its
        // index in the whole interleaved trace.
        for (conn, sender) in conns.iter().zip([addr(1), addr(3)]) {
            for seg in &conn.segments {
                let frame = &frames[seg.frame_index];
                assert_eq!((frame.timestamp, frame.tcp.seq), (seg.time, seg.seq));
                assert!(frame.src().0 == sender || frame.dst().0 == sender);
            }
        }
    }
}
