//! The lanes data plane: a [`Monitor`](crate::Monitor)'s
//! per-connection work partitioned across worker shards, byte-identical
//! output.
//!
//! [`MonitorConfig::shards`](crate::MonitorConfig::shards)` >= 2`
//! swaps the monitor's inline data plane for this one. The control
//! plane — trace clock, source registry, alert engine, metrics, the
//! finalize-emit and tick-close steps — is the same code either way
//! (`engine.rs`); what lives here is only what partitioning needs:
//!
//! * **Router (the caller's thread).** One
//!   [`ConnectionTracker::lifecycle`] tracker per source replicates
//!   every policy decision the inline plane's trackers would make —
//!   ordinal assignment, per-source frame indices, sweep timing,
//!   idle/close expiry, and LRU eviction under `max_connections` (the
//!   cap stays one global budget, never split across shards). It
//!   stores only one frame's metadata per connection, so its memory is
//!   O(open connections). Frames, attributed anomalies, and
//!   finalization orders are routed by [`shard_of`] — a deterministic
//!   hash of the normalized connection key — into per-shard mailbox
//!   queues, and every decision is journaled into a global op log that
//!   pins the exact inline event order.
//! * **Shards.** Each shard owns a `SourceScope` per source — tracker
//!   metadata, BGP demux, quality counters, and the per-connection
//!   incremental tick cache — for just its partition of the connection
//!   space. Shards touch no shared state: between flushes the router
//!   owns everything, and during a parallel flush each shard is
//!   *shipped* (moved, not borrowed) to its persistent worker lane — a
//!   [`tdat_timeset::workpool::WorkerPool`] thread parked on a bounded
//!   ring between flushes — and received back at the join barrier, so
//!   a flush costs a queue hand-off instead of a thread spawn, and no
//!   locks guard the hot path.
//!
//! Queues drain at *snapshot boundaries*: every analysis tick, a
//! queue-depth threshold,
//! [`drain_events`](crate::Monitor::drain_events),
//! [`snapshot_reports`](crate::Monitor::snapshot_reports), and
//! [`finish`](crate::Monitor::finish). After the fork-join the router
//! walks the op log in decision order and hands each entry to the
//! control-plane step the inline plane calls directly: finalization
//! outcomes pop from each shard's FIFO, tick conditions k-way-merge by
//! tracker ordinal, and the peer-group correlation plus the alert
//! engine run once over the merged (source, ordinal)-ordered fleet —
//! the order the inline plane iterates in. That is the determinism
//! argument: every observable decision is either made serially on the
//! router or reassembled in router order, so `shards = N` produces
//! byte-identical JSONL to `shards = 1` (pinned by the identity tests
//! over the oracle matrix and the multi-source suites).
//!
//! What it costs: the router, the mailboxes and the flush barrier are
//! pure overhead next to the inline plane, so the split pays only when
//! per-tick analysis dominates and there are spare cores. On the
//! repository benchmark's 2-core host `monitor.sharded2.speedup` reads
//! 0.92 / 1.04 / 0.82 (see `benchmark/README.md`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdat_packet::{CaptureAnomaly, TcpFrame};
use tdat_timeset::workpool::WorkerPool;
use tdat_timeset::Micros;
use tdat_trace::{ConnKey, ConnectionTracker, FinalizedConnection, TrackerConfig};

use crate::alerts::Condition;
use crate::engine::{
    fleet_view, AnalysisCtx, CachedAnalysis, Control, FinalizeOutcome, Finalized, MonitorEvent,
    SourceScope,
};

/// Flush the shard queues once this many ops are buffered, even
/// without a tick boundary (bounds queue memory between ticks).
const FLUSH_THRESHOLD: usize = 8_192;

/// Minimum work (queued ops, or cached connections at a tick) before a
/// flush ships the shards to their worker lanes; smaller batches run
/// on the caller's thread — the hand-off and the barrier cost more
/// than the work.
const PARALLEL_MIN: usize = 256;

pub use tdat_trace::shard_of;

/// A routed unit of data-plane work, executed by one shard in queue
/// order.
#[derive(Debug)]
enum ShardOp {
    /// Apply one frame to the shard's tracker/demux under the
    /// router-assigned ordinal and per-source frame index.
    Ingest {
        source: u32,
        frame: TcpFrame,
        ordinal: u64,
        index: usize,
    },
    /// Count attributed capture damage against a connection.
    Anomaly {
        source: u32,
        key: ConnKey,
        anomaly: CaptureAnomaly,
    },
    /// Build and clear one connection (the router decided it
    /// finalizes); the outcome queues onto the shard's FIFO.
    Finalize { source: u32, key: ConnKey },
    /// Run tick phases 1–2 for every scope; the per-entry conditions
    /// queue onto the shard's tick FIFO.
    Tick { at: Micros },
}

/// A router decision journaled for in-order reassembly.
#[derive(Debug)]
enum GlobalOp {
    /// A connection finalized: pop the next outcome from `shard`'s
    /// FIFO. `now` is the engine clock at decision time and `open` the
    /// post-removal open-connection count (what the inline plane reads
    /// at the same point).
    Finalize {
        shard: usize,
        source: u32,
        /// The finalized connection's key — enough to report it
        /// quarantined if the owning shard was poisoned by a panic and
        /// never produced the real outcome.
        key: ConnKey,
        now: Micros,
        open: usize,
    },
    /// A tick boundary: merge every shard's queued tick output.
    Tick { at: Micros },
    /// An event produced directly on the control plane (source
    /// notices), kept in op order (boxed: rare next to the other
    /// variants, and much larger).
    Event(Box<MonitorEvent>),
}

/// One shard's share of a tick.
#[derive(Debug, Default)]
struct TickOutput {
    /// `[source][entry]`, each entry `(ordinal, conditions)` sorted by
    /// ordinal within the shard.
    entries: Vec<Vec<(u64, Vec<Condition>)>>,
    /// Wall-clock time the shard spent on its `Tick` op.
    elapsed: Duration,
}

/// One worker shard: a `SourceScope` per source covering this
/// shard's partition of the connection space, plus its mailbox and
/// result FIFOs.
#[derive(Debug)]
struct Shard {
    scopes: Vec<SourceScope>,
    queue: Vec<ShardOp>,
    fins: VecDeque<FinalizeOutcome>,
    ticks: VecDeque<TickOutput>,
    /// Set (to the panic message) when a batch run panicked. A
    /// poisoned shard's state is assumed inconsistent: it receives no
    /// further ops, contributes nothing to ticks or snapshots, and
    /// every connection the router finalizes on it is reported with a
    /// quarantined verdict instead.
    poisoned: Option<String>,
    /// Test hook: makes the next [`run`](Self::run) panic, exercising
    /// the poisoning path end to end.
    #[cfg(test)]
    panic_next: bool,
}

/// The stand-in report for a connection whose owning shard was
/// poisoned by a panic: no analysis survived, so everything is zeroed
/// and the verdict is typed `quarantined` with the panic as the
/// reason. The endpoint order follows the normalized [`ConnKey`] (the
/// data sender is unknown without the analysis).
pub(crate) fn poisoned_shard_report(
    sender: String,
    receiver: String,
    reason: &str,
) -> tdat::Report {
    tdat::Report {
        sender,
        receiver,
        duration_s: 0.0,
        prefixes: 0,
        rtt_ms: None,
        sender_ratio: 0.0,
        receiver_ratio: 0.0,
        network_ratio: 0.0,
        factors: tdat::Factor::ALL
            .iter()
            .map(|f| (f.to_string(), 0.0))
            .collect(),
        major_groups: Vec::new(),
        inferred_timer_ms: None,
        loss_episodes: Vec::new(),
        zero_ack_bug: false,
        delayed_ack_spurious: 0,
        verdict: "quarantined".to_string(),
        quarantine_reason: Some(format!("shard worker panicked: {reason}")),
        capture_anomalies: 0,
    }
}

/// Renders a panic payload for the quarantine reason.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Shard {
    /// An inert shard left behind while the real one is out on a
    /// worker lane — and the stand-in if that lane ever dies without
    /// returning it (`poisoned` pre-set so the op log reports
    /// everything the lost shard owed as quarantined).
    fn placeholder(lost: bool) -> Shard {
        Shard {
            scopes: Vec::new(),
            queue: Vec::new(),
            fins: VecDeque::new(),
            ticks: VecDeque::new(),
            poisoned: lost.then(|| "shard worker lane died".to_string()),
            #[cfg(test)]
            panic_next: false,
        }
    }

    /// [`run`](Self::run) under `catch_unwind`: a panicking batch
    /// poisons this shard instead of tearing down the watch (or, on
    /// the parallel path, aborting via a panicking worker thread).
    fn run_guarded(&mut self, ctx: &AnalysisCtx) {
        if self.poisoned.is_some() {
            // Drop anything routed before the router noticed.
            self.queue.clear();
            return;
        }
        if let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(ctx)))
        {
            self.poisoned = Some(panic_message(payload));
        }
    }

    /// Drains the mailbox in order. Runs on a worker lane during
    /// parallel flushes; everything it touches is shard-local.
    fn run(&mut self, ctx: &AnalysisCtx) {
        #[cfg(test)]
        if std::mem::take(&mut self.panic_next) {
            panic!("injected shard panic");
        }
        for op in std::mem::take(&mut self.queue) {
            match op {
                ShardOp::Ingest {
                    source,
                    frame,
                    ordinal,
                    index,
                } => {
                    let Some(scope) = self.scopes.get_mut(source as usize) else {
                        debug_assert!(false, "routed op for unregistered source {source}");
                        continue;
                    };
                    scope.demux.feed(&frame);
                    scope.tracker.ingest_routed(&frame, ordinal, index);
                }
                ShardOp::Anomaly {
                    source,
                    key,
                    anomaly,
                } => {
                    let Some(scope) = self.scopes.get_mut(source as usize) else {
                        debug_assert!(false, "routed op for unregistered source {source}");
                        continue;
                    };
                    scope.note_damage(key, &anomaly);
                }
                ShardOp::Finalize { source, key } => {
                    let Some(scope) = self.scopes.get_mut(source as usize) else {
                        debug_assert!(false, "routed op for unregistered source {source}");
                        continue;
                    };
                    let Some(fin) = scope.tracker.finalize_key(key) else {
                        debug_assert!(false, "router finalized a key this shard never saw");
                        continue;
                    };
                    let outcome = scope.finalize_connection(fin, &ctx.analyzer);
                    self.fins.push_back(outcome);
                }
                ShardOp::Tick { at } => {
                    // Timed here, where the analysis happens: the
                    // router's clock only ever sees the merge.
                    let started = Instant::now();
                    let entries = self.scopes.iter_mut().map(|s| s.tick(at, ctx)).collect();
                    self.ticks.push_back(TickOutput {
                        entries,
                        elapsed: started.elapsed(),
                    });
                }
            }
        }
    }
}

/// The lanes data plane proper: the router's policy replica, the
/// shards, their worker lanes, and the op log.
#[derive(Debug)]
pub(crate) struct Lanes {
    /// Per-source lifecycle trackers: the policy replica (see module
    /// docs).
    lifecycles: Vec<ConnectionTracker>,
    shards: Vec<Shard>,
    /// Persistent worker lanes (one per shard), created on the first
    /// flush big enough to go parallel; `None` until then so workloads
    /// that never reach [`PARALLEL_MIN`] never spawn a thread. Lanes
    /// park on their rings between flushes; dropping the plane closes
    /// and joins them.
    pool: Option<WorkerPool<(Shard, AnalysisCtx), Shard>>,
    ops: Vec<GlobalOp>,
    /// Shard ops queued since the last flush.
    queued: usize,
}

impl Lanes {
    pub(crate) fn new(shards: usize) -> Lanes {
        Lanes {
            lifecycles: Vec::new(),
            shards: (0..shards).map(|_| Shard::placeholder(false)).collect(),
            pool: None,
            ops: Vec::new(),
            queued: 0,
        }
    }

    /// Adds the next source: a lifecycle tracker on the router and a
    /// scope named `name` on every shard.
    pub(crate) fn register(&mut self, name: &Arc<str>, config: TrackerConfig) {
        let scope = self.lifecycles.len() as u64;
        self.lifecycles
            .push(ConnectionTracker::lifecycle(config, scope));
        for shard in &mut self.shards {
            shard.scopes.push(SourceScope::new(
                name.clone(),
                // Routed trackers never run policy themselves (no
                // sweep, no eviction) — the config is inert here.
                ConnectionTracker::scoped(config, scope),
            ));
        }
    }

    pub(crate) fn open_connections(&self) -> usize {
        self.lifecycles.iter().map(|t| t.open_connections()).sum()
    }

    /// Queues `op` on the shard that owns `key`, unless a panic
    /// poisoned it; returns the shard.
    fn route(&mut self, key: &ConnKey, op: ShardOp) -> usize {
        let shard = shard_of(key, self.shards.len());
        if self.shards[shard].poisoned.is_none() {
            self.shards[shard].queue.push(op);
            self.queued += 1;
        }
        shard
    }

    /// Routes the finalizations the router just decided for `source`.
    fn route_finalized(&mut self, source: u32, fins: Vec<FinalizedConnection>, now: Micros) {
        if fins.is_empty() {
            return;
        }
        // The lifecycle tracker already removed every finalized key,
        // so the post-removal open count is the same for the whole
        // batch — exactly what the inline plane's per-finalize
        // `open_connections()` reads.
        let open = self.open_connections();
        for fin in fins {
            let key = fin.key;
            let shard = self.route(&key, ShardOp::Finalize { source, key });
            // The op stays journaled even for a poisoned shard:
            // assemble() reports the connection quarantined.
            self.ops.push(GlobalOp::Finalize {
                shard,
                source,
                key,
                now,
                open,
            });
        }
    }

    pub(crate) fn ingest(&mut self, control: &mut Control, source: usize, frame: TcpFrame) {
        let Some(lifecycle) = self.lifecycles.get_mut(source) else {
            debug_assert!(false, "unregistered source {source}");
            return;
        };
        let key = ConnKey::of(&frame);
        let index = lifecycle.frames_seen();
        let (ordinal, fins) = lifecycle.ingest_with_ordinal(&frame);
        let source = source as u32;
        self.route(
            &key,
            ShardOp::Ingest {
                source,
                frame,
                ordinal,
                index,
            },
        );
        self.route_finalized(source, fins, control.now);
        if self.queued >= FLUSH_THRESHOLD {
            self.flush(control);
        }
    }

    pub(crate) fn note_damage(&mut self, source: usize, key: ConnKey, anomaly: CaptureAnomaly) {
        let source = source as u32;
        self.route(
            &key,
            ShardOp::Anomaly {
                source,
                key,
                anomaly,
            },
        );
    }

    /// Journals a control-plane event behind the finalizations already
    /// decided.
    pub(crate) fn defer(&mut self, event: MonitorEvent) {
        self.ops.push(GlobalOp::Event(Box::new(event)));
    }

    pub(crate) fn tick(&mut self, control: &mut Control, at: Micros) {
        // A tick is a snapshot boundary: it must be the last op in
        // every queue when its flush runs, so the merged caches the
        // peer-group correlation reads are exactly the post-tick state.
        for shard in &mut self.shards {
            if shard.poisoned.is_none() {
                shard.queue.push(ShardOp::Tick { at });
                self.queued += 1;
            }
        }
        self.ops.push(GlobalOp::Tick { at });
        self.flush(control);
    }

    /// Finalizes every connection still open on the router.
    pub(crate) fn finalize_open(&mut self, control: &mut Control) {
        for idx in 0..self.lifecycles.len() {
            let fresh = ConnectionTracker::lifecycle(control.tracker_config, idx as u64);
            let lifecycle = std::mem::replace(&mut self.lifecycles[idx], fresh);
            self.route_finalized(idx as u32, lifecycle.finish(), control.now);
        }
        self.flush(control);
    }

    /// The healthy shards' cached analyses in (source, ordinal) order.
    pub(crate) fn fleet(&self) -> Vec<(&Arc<str>, &CachedAnalysis)> {
        let healthy: Vec<&[SourceScope]> = self
            .shards
            .iter()
            .filter(|shard| shard.poisoned.is_none())
            .map(|shard| shard.scopes.as_slice())
            .collect();
        fleet_view(&healthy)
    }

    /// Fork-join: every shard drains its mailbox, then the router
    /// reassembles results in op-log (decision) order.
    pub(crate) fn flush(&mut self, control: &mut Control) {
        let mut parallel = false;
        if self.queued > 0 {
            let has_tick = self
                .ops
                .iter()
                .any(|op| matches!(op, GlobalOp::Tick { .. }));
            let cached: usize = if has_tick {
                self.shards
                    .iter()
                    .map(|sh| sh.scopes.iter().map(|s| s.cache.len()).sum::<usize>())
                    .sum()
            } else {
                0
            };
            let ctx = &control.ctx;
            let busy = self.shards.iter().filter(|s| !s.queue.is_empty()).count();
            parallel = busy > 1 && (self.queued >= PARALLEL_MIN || cached >= PARALLEL_MIN);
            if parallel {
                // Ship each busy shard to its persistent lane and take
                // it back at the barrier: ownership moves, so the lanes
                // need no 'static borrows and stay parked between
                // flushes instead of being respawned per flush.
                let lanes = self.shards.len();
                let pool = self.pool.get_or_insert_with(|| {
                    WorkerPool::new(
                        lanes,
                        1,
                        |_| (),
                        |(), (mut shard, ctx): (Shard, AnalysisCtx)| {
                            shard.run_guarded(&ctx);
                            Some(shard)
                        },
                    )
                });
                let busy_lanes: Vec<usize> = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.queue.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                for &i in &busy_lanes {
                    let shard = std::mem::replace(&mut self.shards[i], Shard::placeholder(true));
                    if !pool.send(i, (shard, ctx.clone())) {
                        continue; // lane dead: the placeholder stands in, poisoned
                    }
                }
                for &i in &busy_lanes {
                    if let Some(shard) = pool.recv(i) {
                        self.shards[i] = shard;
                    }
                }
            } else {
                for shard in &mut self.shards {
                    if !shard.queue.is_empty() {
                        shard.run_guarded(ctx);
                    }
                }
            }
            self.queued = 0;
            let poisoned = self.shards.iter().filter(|s| s.poisoned.is_some()).count() as u64;
            while control.metrics.shards_poisoned() < poisoned {
                control.metrics.record_shard_poisoned();
            }
        }
        self.assemble(control, parallel);
    }

    /// Walks the op log in decision order, handing each entry to the
    /// control-plane step the inline plane calls directly. `parallel`
    /// says how the flush just ran, i.e. what a tick's critical path
    /// was: the slowest shard on worker lanes, their sum on one thread.
    fn assemble(&mut self, control: &mut Control, parallel: bool) {
        for op in std::mem::take(&mut self.ops) {
            match op {
                GlobalOp::Event(event) => control.events.push(*event),
                GlobalOp::Finalize {
                    shard,
                    source,
                    key,
                    now,
                    open,
                } => {
                    let owner = &mut self.shards[shard];
                    let finalized = match (owner.fins.pop_front(), &owner.poisoned) {
                        (Some(outcome), _) => Finalized::Outcome(outcome),
                        (None, Some(reason)) => Finalized::Lost {
                            key,
                            reason: reason.clone(),
                        },
                        (None, None) => {
                            debug_assert!(false, "op log references a missing finalize outcome");
                            continue;
                        }
                    };
                    control.emit_finalized(source as usize, now, open, finalized);
                }
                GlobalOp::Tick { at } => {
                    let started = Instant::now();
                    let mut outputs: Vec<TickOutput> = self
                        .shards
                        .iter_mut()
                        .map(|sh| sh.ticks.pop_front().unwrap_or_default())
                        .collect();
                    let elapsed = outputs.iter().map(|output| output.elapsed);
                    let analysis = if parallel {
                        elapsed.max().unwrap_or_default()
                    } else {
                        elapsed.sum()
                    };
                    let mut conditions: Vec<Condition> = Vec::new();
                    let mut open = 0usize;
                    for s in 0..self.lifecycles.len() {
                        // K-way merge of this source's per-entry
                        // conditions across shards, by tracker ordinal
                        // — the inline plane's iteration order.
                        let mut merged: Vec<(u64, Vec<Condition>)> = Vec::new();
                        for output in &mut outputs {
                            if let Some(entries) = output.entries.get_mut(s) {
                                merged.append(entries);
                            }
                        }
                        merged.sort_unstable_by_key(|(ordinal, _)| *ordinal);
                        open += merged.len();
                        for (_, entry) in merged {
                            conditions.extend(entry);
                        }
                    }
                    // Snapshot boundaries are the only place
                    // cross-shard state meets: the correlation reads
                    // the merged fleet by reference.
                    control.close_tick(at, open, conditions, &self.fleet(), analysis, started);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Monitor, MonitorConfig, Plane};
    use std::net::Ipv4Addr;
    use tdat_packet::{FrameBuilder, TcpFlags, TcpOption};

    fn config(window_s: i64, interval_s: i64, shards: usize) -> MonitorConfig {
        MonitorConfig {
            window: Micros::from_secs(window_s),
            interval: Micros::from_secs(interval_s),
            shards,
            ..MonitorConfig::default()
        }
    }

    /// Handshake then `n` MSS data/ACK exchanges between `a` and `b`.
    fn transfer_frames_between(a: Ipv4Addr, b: Ipv4Addr, n: usize, t0: i64) -> Vec<TcpFrame> {
        let mut frames = Vec::new();
        let mut t = t0;
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(0)
                .flags(TcpFlags::SYN)
                .option(TcpOption::Mss(1448))
                .window(65535)
                .build(),
        );
        t += 100;
        frames.push(
            FrameBuilder::new(b, a)
                .at(Micros(t))
                .ports(40000, 179)
                .seq(0)
                .ack_to(1)
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .option(TcpOption::Mss(1448))
                .window(65535)
                .build(),
        );
        let mut seq = 1u32;
        for _ in 0..n {
            t += 1_000;
            frames.push(
                FrameBuilder::new(a, b)
                    .at(Micros(t))
                    .ports(179, 40000)
                    .seq(seq)
                    .ack_to(1)
                    .payload(vec![0xab; 1448])
                    .build(),
            );
            seq = seq.wrapping_add(1448);
            t += 500;
            frames.push(
                FrameBuilder::new(b, a)
                    .at(Micros(t))
                    .ports(40000, 179)
                    .seq(1)
                    .ack_to(seq)
                    .window(65535)
                    .build(),
            );
        }
        frames
    }

    /// A multi-connection workload long enough for ticks, stalls, and
    /// finalizations.
    fn fleet_frames() -> Vec<TcpFrame> {
        fleet_frames_of(6, 15)
    }

    /// `connections` staggered transfers of `exchanges` each,
    /// interleaved in capture order.
    fn fleet_frames_of(connections: u8, exchanges: usize) -> Vec<TcpFrame> {
        let mut frames = Vec::new();
        for i in 0..connections {
            frames.extend(transfer_frames_between(
                Ipv4Addr::new(10, 0, i, 1),
                Ipv4Addr::new(10, 0, i, 2),
                exchanges,
                i as i64 * 2_500,
            ));
        }
        frames.sort_by_key(|f| f.timestamp);
        frames
    }

    fn run_events(shards: usize) -> (Vec<String>, Vec<(String, String, String)>) {
        let mut monitor = Monitor::new(config(60, 10, shards));
        let id = monitor.register_source("capture");
        for frame in fleet_frames() {
            monitor.ingest_owned(id, frame);
        }
        monitor.advance_to(Micros::from_secs(200));
        let snapshots = monitor.snapshot_reports();
        monitor.finish();
        let events = monitor.drain_events().iter().map(|e| e.to_json()).collect();
        (events, snapshots)
    }

    #[test]
    fn sharded_output_is_byte_identical_to_serial() {
        let (serial_events, serial_snaps) = run_events(1);
        assert!(!serial_events.is_empty());
        for shards in [2, 3, 4] {
            let (events, snaps) = run_events(shards);
            assert_eq!(events, serial_events, "{shards} shards diverged");
            assert_eq!(snaps, serial_snaps, "{shards}-shard snapshots diverged");
        }
    }

    /// Ticks and mean tick latency (µs) of a watch whose every tick
    /// re-analyzes 16 growing transfers: 0.3 s of traffic, a tick every
    /// 20 ms.
    fn heavy_ticks(shards: usize) -> (u64, u64) {
        let mut monitor = Monitor::new(MonitorConfig {
            interval: Micros::from_millis(20),
            shards,
            ..MonitorConfig::default()
        });
        let id = monitor.register_source("capture");
        for frame in fleet_frames_of(16, 200) {
            monitor.ingest_owned(id, frame);
        }
        monitor.finish();
        let metrics = monitor.metrics();
        (metrics.ticks(), metrics.analysis_latency().mean_us())
    }

    #[test]
    fn tick_latency_includes_the_analysis_done_on_the_shards() {
        let (serial_ticks, serial_us) = heavy_ticks(1);
        let (ticks, us) = heavy_ticks(2);
        assert!(serial_ticks >= 10, "{serial_ticks} ticks");
        assert_eq!(ticks, serial_ticks);
        // Wall-clock, so the margin is wide: the same analysis split
        // two ways should read about the same (0.5–1.5×); timing only
        // the merge read under a hundredth.
        assert!(
            us * 5 >= serial_us,
            "a tick reads {us} µs on 2 shards, {serial_us} µs inline"
        );
    }

    #[test]
    fn shard_of_is_direction_symmetric_and_in_range() {
        let a = (Ipv4Addr::new(10, 0, 0, 1), 179u16);
        let b = (Ipv4Addr::new(192, 168, 3, 7), 40000u16);
        for shards in 1..=8 {
            let fwd = shard_of(&ConnKey::of_endpoints(a, b), shards);
            let rev = shard_of(&ConnKey::of_endpoints(b, a), shards);
            assert_eq!(fwd, rev);
            assert!(fwd < shards);
        }
    }

    #[test]
    fn a_panicking_shard_quarantines_only_its_connections() {
        let shard_count = 3;
        let endpoints: Vec<_> = (0..6u8)
            .map(|i| {
                (
                    (Ipv4Addr::new(10, 0, i, 1), 179u16),
                    (Ipv4Addr::new(10, 0, i, 2), 40000u16),
                )
            })
            .collect();
        let owner: Vec<usize> = endpoints
            .iter()
            .map(|(a, b)| shard_of(&ConnKey::of_endpoints(*a, *b), shard_count))
            .collect();
        let victim = owner[0];
        assert!(
            owner.iter().any(|&s| s != victim),
            "fleet must span more than one shard: {owner:?}"
        );

        let mut monitor = Monitor::new(config(60, 10, shard_count));
        let id = monitor.register_source("capture");
        for frame in fleet_frames() {
            monitor.ingest_owned(id, frame);
        }
        // Arm the hook before the first flush: the victim's very first
        // batch panics, so none of its analysis ever lands.
        match &mut monitor.plane {
            Plane::Lanes(lanes) => lanes.shards[victim].panic_next = true,
            Plane::Inline(_) => unreachable!("3 shards build the lanes plane"),
        }
        monitor.advance_to(Micros::from_secs(200));
        monitor.finish();
        assert_eq!(monitor.metrics().shards_poisoned(), 1);

        let mut quarantined = 0;
        let mut healthy = 0;
        for event in monitor.drain_events() {
            let MonitorEvent::Connection(c) = event else {
                continue;
            };
            let i = endpoints
                .iter()
                .position(|(a, b)| {
                    c.session.contains(&format!("{}:{}", a.0, a.1))
                        && c.session.contains(&format!("{}:{}", b.0, b.1))
                })
                .expect("summary maps to a fleet connection");
            if owner[i] == victim {
                quarantined += 1;
                assert_eq!(c.report.verdict, "quarantined", "{}", c.session);
                let reason = c.report.quarantine_reason.as_deref().unwrap_or("");
                assert!(reason.contains("injected shard panic"), "{reason}");
            } else {
                healthy += 1;
                assert_ne!(c.report.verdict, "quarantined", "{}", c.session);
            }
        }
        assert!(quarantined >= 1, "the victim shard owned no connections");
        assert!(healthy >= 1, "no healthy connections survived");
        assert_eq!(quarantined + healthy, 6, "the watch must still complete");
    }
}
