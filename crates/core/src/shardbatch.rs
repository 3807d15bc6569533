//! The *lanes* sink: one capture partitioned across worker lanes.
//!
//! [`StreamOptions::shards`](crate::StreamOptions::shards) `>= 2` makes
//! every [`StreamAnalyzer`](crate::StreamAnalyzer) source step its
//! frames into a [`ShardCoordinator`] instead of the inline sink, with
//! output byte-identical to the serial pass. The split follows the
//! sharded monitor's recipe ([`tdat_trace::shard_of`] over the
//! normalized connection key, so a connection's frames always land on
//! one lane) and reuses its lifecycle/routed tracker split:
//!
//! * the **coordinator** (the calling thread) is handed decoded frames
//!   by the source and runs a [`ConnectionTracker::lifecycle`] router
//!   that makes every policy decision (ordinals, sweep order, eviction)
//!   exactly like the serial tracker;
//! * each **lane** (a [`WorkerPool`] worker) owns a routed
//!   [`ConnectionTracker`] plus a [`BgpDemux`] for its slice of the
//!   connection space and runs reassembly + analysis off the decode
//!   thread;
//! * ops flow lane-ward in batches over bounded SPSC rings
//!   ([`tdat_timeset::workpool`]), and analyses flow back tagged with
//!   the **global finalization sequence** the router assigned, which a
//!   reorder buffer restores — delivery order, and therefore report
//!   JSON, is byte-for-byte the serial pass's.
//!
//! Determinism argument, in one breath: the router replicates the
//! serial tracker's decisions (`lifecycle` is policy-identical by
//! construction), each lane sees exactly the frames of its own
//! connections in capture order (hash partition by connection key +
//! FIFO rings), `analyze_extracted_lossy` is a pure function of
//! `(connection, extraction, counts)`, and the reorder buffer emits in
//! router-finalization order. Nothing observable depends on lane
//! scheduling — a failed source included, since
//! [`finish`](ShardCoordinator::finish) drains the lanes before the
//! error is returned.
//!
//! What it costs: the coordinator decodes, routes and copies every
//! frame on one thread, and the lanes track again what the router
//! tracked. On the repository benchmark's 2-core host two lanes spend
//! 1.3–1.4× the CPU of the serial pass and finish slower than it on all
//! three workloads (`benchmark/README.md`: `core.sharded2.speedup`,
//! `core.sharded2.cpu_ratio`).

use std::collections::HashMap;
use std::sync::Arc;

use tdat_packet::{AnomalyCounts, FrameLike, Ipv4Header, TcpHeader};
use tdat_timeset::workpool::WorkerPool;
use tdat_timeset::Micros;
use tdat_trace::{shard_of, ConnKey, ConnectionTracker, TrackerConfig};

use crate::analyzer::Analysis;
use crate::error::{Error, Result};
use crate::stream::{BgpDemux, ReorderBuffer, StreamAnalyzer};

/// Ops per batch shipped to a lane. Large enough to amortize the ring
/// hand-off (one mutex round-trip per batch, not per frame), small
/// enough that lanes start working while the coordinator is still
/// decoding.
const BATCH_OPS: usize = 256;

/// Batches in flight per lane before the coordinator blocks
/// (backpressure): bounds coordinator run-ahead, and with it the owned
/// frames alive at once, to `shards * RING_DEPTH * BATCH_OPS`.
const RING_DEPTH: usize = 4;

/// The headers of a frame materialized for shipment to a lane:
/// exactly the fields the [`FrameLike`] consumers on the other side
/// (routed tracker, BGP demux) read, minus the payload — that lives
/// in the batch's shared arena. The link-layer header is dropped — no
/// analysis stage looks at it.
#[derive(Debug)]
struct FrameMeta {
    timestamp: Micros,
    ip: Ipv4Header,
    tcp: TcpHeader,
}

impl FrameMeta {
    fn of(frame: &impl FrameLike) -> FrameMeta {
        FrameMeta {
            timestamp: frame.timestamp(),
            ip: frame.ip().clone(),
            tcp: frame.tcp().clone(),
        }
    }
}

/// A shipped frame reassembled on the lane side: headers from the op,
/// payload borrowed from the batch arena.
struct LaneFrame<'a> {
    meta: FrameMeta,
    payload: &'a [u8],
}

impl FrameLike for LaneFrame<'_> {
    fn timestamp(&self) -> Micros {
        self.meta.timestamp
    }
    fn ip(&self) -> &Ipv4Header {
        &self.meta.ip
    }
    fn tcp(&self) -> &TcpHeader {
        &self.meta.tcp
    }
    fn payload(&self) -> &[u8] {
        self.payload
    }
}

/// One instruction to a lane, in strict per-lane FIFO order.
#[derive(Debug)]
enum BatchOp {
    /// Ingest a frame of a connection this lane owns, under the
    /// router-assigned ordinal and global frame index. The payload is
    /// `payload` of the carrying [`Batch`]'s arena.
    Frame {
        meta: FrameMeta,
        payload: std::ops::Range<usize>,
        ordinal: u64,
        index: usize,
    },
    /// The router finalized `key`: build, extract, and analyze it,
    /// tagging the result with global sequence `seq`.
    Finalize {
        key: ConnKey,
        seq: usize,
        counts: AnomalyCounts,
    },
}

/// A batch of ops plus one shared payload arena: frame payloads append
/// to `bytes` and ops reference them by range, so shipping a batch
/// costs two allocations — not one `Vec` per frame.
#[derive(Debug)]
struct Batch {
    ops: Vec<BatchOp>,
    bytes: Vec<u8>,
}

impl Batch {
    fn empty() -> Batch {
        Batch {
            ops: Vec::with_capacity(BATCH_OPS),
            bytes: Vec::new(),
        }
    }
}

/// Per-lane state: the routed tracker and demux for this lane's slice
/// of the connection space. Built on the lane's own thread, never moved.
struct ShardLane {
    tracker: ConnectionTracker,
    demux: BgpDemux,
}

/// The coordinator side of a sharded batch run. Feed frames with
/// [`step`](Self::step) (capture order), then [`finish`](Self::finish).
pub(crate) struct ShardCoordinator<F: FnMut(Analysis)> {
    router: ConnectionTracker,
    pool: WorkerPool<Batch, Vec<(usize, Analysis)>>,
    /// Per-lane batch being accumulated (flushed at [`BATCH_OPS`]).
    pending: Vec<Batch>,
    /// Batches sent to each lane and not yet answered: every batch
    /// yields exactly one result, so this is the per-lane drain
    /// obligation.
    owed: Vec<usize>,
    reorder: ReorderBuffer<Analysis>,
    /// Finalization sequence numbers issued so far.
    dispatched: usize,
    /// Capture anomalies per still-open connection (lossy sources); a
    /// connection's `Finalize` op carries its entry to the lane.
    pub(crate) quality: HashMap<ConnKey, AnomalyCounts>,
    shards: usize,
    on_result: F,
}

impl<F: FnMut(Analysis)> ShardCoordinator<F> {
    /// Spawns the engine's `shards` lanes; the engine keeps counts below
    /// two on the inline sink.
    pub(crate) fn new(engine: &StreamAnalyzer, on_result: F) -> ShardCoordinator<F> {
        let shards = engine.options.shards;
        let analyzer = Arc::new(engine.analyzer().clone());
        let pool = WorkerPool::new(
            shards,
            RING_DEPTH,
            |_lane| ShardLane {
                // Policy lives on the router; routed ingestion runs
                // none, so the lane tracker's config is inert — batch()
                // documents that it never finalizes on its own.
                tracker: ConnectionTracker::new(TrackerConfig::batch()),
                demux: BgpDemux::new(),
            },
            move |lane: &mut ShardLane, batch: Batch| {
                let mut out = Vec::new();
                let Batch { ops, bytes } = batch;
                for op in ops {
                    match op {
                        BatchOp::Frame {
                            meta,
                            payload,
                            ordinal,
                            index,
                        } => {
                            let frame = LaneFrame {
                                meta,
                                payload: &bytes[payload],
                            };
                            lane.demux.feed(&frame);
                            lane.tracker.ingest_routed(&frame, ordinal, index);
                        }
                        BatchOp::Finalize { key, seq, counts } => {
                            let fin = lane
                                .tracker
                                .finalize_key(key)
                                .expect("router-finalized key is open in its lane");
                            let extraction = lane.demux.take(fin.key, fin.connection.sender);
                            out.push((
                                seq,
                                analyzer.analyze_extracted_lossy(
                                    fin.connection,
                                    &extraction,
                                    counts,
                                ),
                            ));
                        }
                    }
                }
                // Empty batches still answer: the coordinator counts one
                // result per batch to know when a lane is drained.
                Some(out)
            },
        );
        ShardCoordinator {
            router: ConnectionTracker::lifecycle(engine.options.tracker, 0),
            pool,
            pending: (0..shards).map(|_| Batch::empty()).collect(),
            owed: vec![0; shards],
            reorder: ReorderBuffer::new(),
            dispatched: 0,
            quality: HashMap::new(),
            shards,
            on_result,
        }
    }

    /// Ingests one frame in capture order: routes it to its lane, and
    /// turns every router finalization into a `Finalize` op carrying
    /// the next global sequence number.
    pub(crate) fn step(&mut self, frame: &impl FrameLike) -> Result<()> {
        let key = ConnKey::of(frame);
        let index = self.router.frames_seen();
        let (ordinal, finalized) = self.router.ingest_with_ordinal(frame);
        let lane = shard_of(&key, self.shards);
        let arena = &mut self.pending[lane].bytes;
        let start = arena.len();
        arena.extend_from_slice(frame.payload());
        let payload = start..arena.len();
        self.push_op(
            lane,
            BatchOp::Frame {
                meta: FrameMeta::of(frame),
                payload,
                ordinal,
                index,
            },
        )?;
        for fin in finalized {
            self.dispatch_finalize(fin.key)?;
        }
        Ok(())
    }

    fn dispatch_finalize(&mut self, key: ConnKey) -> Result<()> {
        let seq = self.dispatched;
        self.dispatched += 1;
        let counts = self.quality.remove(&key).unwrap_or_default();
        self.push_op(
            shard_of(&key, self.shards),
            BatchOp::Finalize { key, seq, counts },
        )
    }

    fn push_op(&mut self, lane: usize, op: BatchOp) -> Result<()> {
        self.pending[lane].ops.push(op);
        if self.pending[lane].ops.len() >= BATCH_OPS {
            self.flush_lane(lane)?;
        }
        Ok(())
    }

    fn flush_lane(&mut self, lane: usize) -> Result<()> {
        if self.pending[lane].ops.is_empty() {
            return Ok(());
        }
        // Drain *before* sending, so result rings are empty whenever a
        // send could block on a full job ring. A blocked send then
        // always unblocks: the lane must pop a job to make progress —
        // freeing our slot — before it can push another result, so it
        // can never be wedged on a full result ring while we wait.
        // Draining here (once per batch) rather than once per frame
        // keeps the coordinator's ring traffic off the per-frame path.
        self.drain_ready();
        let batch = std::mem::replace(&mut self.pending[lane], Batch::empty());
        if !self.pool.send(lane, batch) {
            return Err(Error::WorkerLost);
        }
        self.owed[lane] += 1;
        Ok(())
    }

    /// Opportunistically collects finished batches so lanes never stall
    /// on a full result ring while the coordinator is still decoding.
    fn drain_ready(&mut self) {
        for lane in 0..self.shards {
            while let Some(results) = self.pool.try_recv(lane) {
                self.owed[lane] -= 1;
                for (seq, analysis) in results {
                    self.reorder.insert(seq, analysis, &mut self.on_result);
                }
            }
        }
    }

    /// Ends the run with the source's outcome. After a clean read every
    /// still-open connection is finalized (router ordinal order, like
    /// the inline sink); after a failed one nothing further is. Either
    /// way the lanes are then drained, so every finalization already
    /// issued is delivered before the source's error is returned.
    pub(crate) fn finish(mut self, read: Result<()>) -> Result<()> {
        if read.is_ok() {
            let router = std::mem::replace(
                &mut self.router,
                ConnectionTracker::lifecycle(TrackerConfig::batch(), 0),
            );
            for fin in router.finish() {
                self.dispatch_finalize(fin.key)?;
            }
        }
        read.and(self.drain())
    }

    /// Flushes all lanes and blocks until every dispatched analysis has
    /// been re-ordered out.
    fn drain(&mut self) -> Result<()> {
        for lane in 0..self.shards {
            self.flush_lane(lane)?;
        }
        for lane in 0..self.shards {
            while self.owed[lane] > 0 {
                let results = self.pool.recv(lane).ok_or(Error::WorkerLost)?;
                self.owed[lane] -= 1;
                for (seq, analysis) in results {
                    self.reorder.insert(seq, analysis, &mut self.on_result);
                }
            }
        }
        if self.reorder.emitted != self.dispatched {
            // A lane died between answering its batches and building
            // every analysis it owed (it cannot happen without a
            // panic, which also closes the ring — belt and braces).
            return Err(Error::WorkerLost);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalyzerConfig;
    use crate::stream::StreamOptions;
    use std::net::Ipv4Addr as Ip;
    use tdat_packet::{FrameBuilder, TcpFlags, TcpFrame};

    fn exchange(a: Ip, b: Ip, t0: i64) -> Vec<TcpFrame> {
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
                .payload(vec![0xca; 700])
                .build(),
            FrameBuilder::new(b, a)
                .at(Micros(t0 + 400))
                .ports(40000, 179)
                .seq(901)
                .ack_to(801)
                .build(),
        ]
    }

    fn mixed_trace() -> Vec<TcpFrame> {
        let mut frames = Vec::new();
        for i in 0..6u8 {
            frames.extend(exchange(
                Ip::new(10, 0, i, 1),
                Ip::new(10, 0, 0, 200),
                i as i64 * 900,
            ));
        }
        frames.sort_by_key(|f| f.timestamp);
        frames
    }

    fn summaries(analyses: &[Analysis]) -> Vec<String> {
        let config = AnalyzerConfig::default();
        analyses
            .iter()
            .map(|a| crate::report::Report::from_analysis(a, &config).to_json())
            .collect()
    }

    #[test]
    fn sharded_stream_matches_serial_reports() {
        let frames = mixed_trace();
        let serial = StreamAnalyzer::with_options(
            AnalyzerConfig::default(),
            StreamOptions {
                tracker: TrackerConfig::batch(),
                shards: 0,
                ..Default::default()
            },
        );
        let mut want = Vec::new();
        serial
            .analyze_stream(frames.iter().cloned().map(Ok), |a| want.push(a))
            .unwrap();
        for shards in [1, 2, 3, 7] {
            let engine = StreamAnalyzer::with_options(
                AnalyzerConfig::default(),
                StreamOptions {
                    tracker: TrackerConfig::batch(),
                    shards,
                    ..Default::default()
                },
            );
            let mut got = Vec::new();
            engine
                .analyze_stream(frames.iter().cloned().map(Ok), |a| got.push(a))
                .unwrap();
            assert_eq!(
                summaries(&got),
                summaries(&want),
                "{shards}-shard run must render byte-identical reports"
            );
        }
    }

    #[test]
    fn sharded_streaming_policy_matches_serial() {
        // Streaming tracker config: idle/close finalization mid-run and
        // a tight cap forcing evictions — the policy replication path.
        let mut frames = Vec::new();
        for i in 0..8u8 {
            frames.extend(exchange(
                Ip::new(10, 1, i, 1),
                Ip::new(10, 0, 0, 200),
                i as i64 * 9_000_000,
            ));
        }
        frames.sort_by_key(|f| f.timestamp);
        let tracker = TrackerConfig {
            max_connections: Some(3),
            ..TrackerConfig::streaming()
        };
        let serial = StreamAnalyzer::with_options(
            AnalyzerConfig::default(),
            StreamOptions {
                tracker,
                shards: 0,
                ..Default::default()
            },
        );
        let mut want = Vec::new();
        serial
            .analyze_stream(frames.iter().cloned().map(Ok), |a| want.push(a))
            .unwrap();
        let engine = StreamAnalyzer::with_options(
            AnalyzerConfig::default(),
            StreamOptions {
                tracker,
                shards: 4,
                ..Default::default()
            },
        );
        let mut got = Vec::new();
        engine
            .analyze_stream(frames.iter().cloned().map(Ok), |a| got.push(a))
            .unwrap();
        assert!(!want.is_empty());
        assert_eq!(summaries(&got), summaries(&want));
    }

    #[test]
    fn sharded_pcap_matches_serial_pcap() {
        let frames = mixed_trace();
        let dir = std::env::temp_dir().join("tdat_shardbatch_pcap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.pcap");
        tdat_packet::write_pcap_file(&path, frames.iter()).unwrap();
        let serial = StreamAnalyzer::with_options(
            AnalyzerConfig::default(),
            StreamOptions {
                tracker: TrackerConfig::batch(),
                shards: 0,
                ..Default::default()
            },
        );
        let want = serial.analyze_pcap(&path).unwrap();
        let engine = StreamAnalyzer::with_options(
            AnalyzerConfig::default(),
            StreamOptions {
                tracker: TrackerConfig::batch(),
                shards: 2,
                ..Default::default()
            },
        );
        let got = engine.analyze_pcap(&path).unwrap();
        assert_eq!(summaries(&got), summaries(&want));
    }
}
