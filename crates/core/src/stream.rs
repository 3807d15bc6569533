//! The batch engine: one loop, one sink, three sources.
//!
//! [`StreamAnalyzer`] is the crate's one batch pass; `t-dat`, the
//! oracle, the paper experiments and the tests all run it. Every entry
//! point is the same pass — demultiplex frames into per-connection
//! state with a [`ConnectionTracker`], feed payload bytes straight into
//! incremental BGP reassembly ([`tdat_pcap2bgp::StreamExtractor`], which
//! keeps a flat message log per connection, not decoded messages), run
//! the series/factor/detector pipeline on each connection as it
//! finalizes, deliver the [`Analysis`] results in finalization order —
//! and the entry points differ only in their **source**, what is read:
//!
//! * strict zero-copy [`FrameView`](tdat_packet::FrameView)s from a
//!   pcap path ([`analyze_pcap_with`](StreamAnalyzer::analyze_pcap_with)),
//! * [`TcpFrame`]s already in memory, borrowed
//!   ([`analyze_frames`](StreamAnalyzer::analyze_frames)),
//! * damage-tolerant views from a [`LossyReader`]
//!   ([`analyze_lossy_with`](StreamAnalyzer::analyze_lossy_with)), whose
//!   anomalies are charged to the connection they hit. The strict
//!   sources are this one with nothing to charge.
//!
//! A source steps its frames into the one **sink**, an [`Ingest`] (the
//! ingest core a live monitor runs per source) on the calling thread,
//! each connection delivered the moment it finalizes. So when a source
//! fails, every connection that finalized ahead of the failing record
//! has already been delivered by the time the error is returned. One
//! capture is one serial pass; a corpus of captures is spread over
//! cores one capture per pass (`t-dat-monitor --sweep DIR --jobs N`).
//!
//! Frame payloads are dropped as soon as they are ingested. What is
//! held is, per open connection, a 32-byte record per frame (its
//! endpoints are kept once, in the connection's key) and the message
//! log (4 bytes per BGP message, 16 per run of
//! messages one segment framed, 4 per announced prefix), plus whatever
//! reassembly has parked out of order (bounded)
//! and at most one partial message per direction. By default every
//! connection stays open to its last frame
//! ([`StreamOptions::tracker`]), so memory grows with the input's frame
//! count; a [`TrackerConfig::streaming`] engine finalizes on close or
//! idle and holds only what is still open. Before every frame the
//! ingest core [settles](BgpDemux::settle) the logs whose MCT answer is
//! final as of its time ([`Ingest`]): a settled log keeps the answer in
//! place of its table. So a pass over a capture of many table transfers
//! holds the tables of the sessions whose answer can still change, not
//! of every session it has seen. The answer is exact while frame times
//! do not decrease, the precondition the batch pass shares with the
//! watch; a row stamped behind a settled horizon is counted, not read.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::Path;

use tdat_bgp::MctConfig;
use tdat_packet::{
    AnomalyCounts, CaptureAnomaly, FrameLike, LossyFrameView, LossyReader, PcapReader, TcpFrame,
};
use tdat_pcap2bgp::{Extraction, StreamExtractor};
use tdat_timeset::Micros;
use tdat_trace::{ConnKey, ConnectionTracker, Drain, Endpoint, FinalizedConnection, TrackerConfig};

use crate::analyzer::{Analysis, Analyzer};
use crate::config::AnalyzerConfig;
use crate::error::Result;

/// Tuning of the batch engine.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// No effect. The thread pool it sized is gone; the field outlives
    /// it only until the repository benchmark, which builds this struct
    /// as a literal, stops naming it.
    pub workers: usize,
    /// When connections are finalized. The default,
    /// [`TrackerConfig::batch`], holds every connection to its last
    /// frame, so each report covers the whole input and memory grows
    /// with the input's frame count; [`TrackerConfig::streaming`]
    /// finalizes on close or idle and holds only the open connections.
    pub tracker: TrackerConfig,
    /// No effect. The worker lanes it counted are gone; the field
    /// outlives them only until the repository benchmark, which builds
    /// this struct as a literal, stops naming it.
    pub shards: usize,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions {
            workers: 0,
            tracker: TrackerConfig::batch(),
            shards: 0,
        }
    }
}

/// The batch engine: per-connection frame ingestion, finalization at
/// the end of the input (or on close/idle, per
/// [`StreamOptions::tracker`]), and analysis of each connection as it
/// finalizes — see the module docs for the sources and the sink.
///
/// # Examples
///
/// ```no_run
/// use tdat::StreamAnalyzer;
///
/// let engine = StreamAnalyzer::default();
/// engine.analyze_pcap_with("bgp-session.pcap", |analysis| {
///     println!("{} → {}", analysis.sender.0, analysis.receiver.0);
///     println!("{}", analysis.vector);
/// })?;
/// let frames = tdat_packet::read_pcap_file("bgp-session.pcap")?;
/// for analysis in engine.analyze_frames(&frames) {
///     println!("{}", analysis.vector);
/// }
/// # Ok::<(), tdat::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamAnalyzer {
    analyzer: Analyzer,
    options: StreamOptions,
}

/// Summary of a lossy (damage-tolerant) streaming run: what the
/// decoder survived and how many connections were sealed.
#[derive(Debug, Clone, Default)]
pub struct LossyRunReport {
    /// Every capture anomaly observed, attributed or not.
    pub counts: AnomalyCounts,
    /// TCP frames successfully decoded.
    pub frames: u64,
    /// Well-formed non-IPv4/non-TCP records skipped (not anomalous).
    pub cross_traffic: u64,
    /// Connections whose verdict was
    /// [`Quarantined`](crate::Verdict::Quarantined).
    pub quarantined: usize,
    /// Connections analyzed in total.
    pub connections: usize,
}

impl StreamAnalyzer {
    /// Creates an engine with default options: the serial pass, every
    /// connection held to its last frame.
    pub fn new(config: AnalyzerConfig) -> StreamAnalyzer {
        StreamAnalyzer::with_options(config, StreamOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(config: AnalyzerConfig, options: StreamOptions) -> StreamAnalyzer {
        StreamAnalyzer {
            analyzer: Analyzer::new(config),
            options,
        }
    }

    /// The underlying per-connection analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    fn sink<F: FnMut(Analysis)>(&self, on_result: F) -> Sink<'_, F> {
        Sink {
            analyzer: &self.analyzer,
            ingest: Ingest::new(self.options.tracker),
            on_result,
        }
    }

    /// Streams a pcap file, invoking `on_result` for each analyzed
    /// connection in finalization order. Frames are decoded zero-copy
    /// against the reader's buffer; nothing is materialized per frame.
    ///
    /// # Errors
    ///
    /// Fails on I/O or pcap decode errors — after delivering every
    /// connection finalized before the failure.
    pub fn analyze_pcap_with<F>(&self, path: impl AsRef<Path>, on_result: F) -> Result<()>
    where
        F: FnMut(Analysis),
    {
        let mut sink = self.sink(on_result);
        let mut reader = PcapReader::open(path)?;
        while let Some(frame) = reader.next_view()? {
            sink.step(&frame);
        }
        sink.finish();
        Ok(())
    }

    /// Streams a pcap file, collecting the analyses in finalization
    /// order.
    ///
    /// # Errors
    ///
    /// See [`analyze_pcap_with`](Self::analyze_pcap_with).
    pub fn analyze_pcap(&self, path: impl AsRef<Path>) -> Result<Vec<Analysis>> {
        let mut out = Vec::new();
        self.analyze_pcap_with(path, |a| out.push(a))?;
        Ok(out)
    }

    /// Analyzes frames already in memory (capture order), borrowing
    /// them, and returns the analyses in finalization order.
    pub fn analyze_frames(&self, frames: &[TcpFrame]) -> Vec<Analysis> {
        let mut out = Vec::new();
        let mut sink = self.sink(|a| out.push(a));
        for frame in frames {
            sink.step(frame);
        }
        sink.finish();
        out
    }

    /// Streams a pcap file through the *lossy* decoder: damaged
    /// records become typed anomalies attributed to their connection,
    /// each finalized connection carries a capture-quality
    /// [`Verdict`](crate::Verdict), and one poisoned stream never
    /// aborts the run.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors, a bad pcap magic, or a capture whose
    /// tail stays unreadable past the bounded resynchronization scan —
    /// never on in-stream damage.
    pub fn analyze_pcap_lossy_with<F>(
        &self,
        path: impl AsRef<Path>,
        on_result: F,
    ) -> Result<LossyRunReport>
    where
        F: FnMut(Analysis),
    {
        let reader = LossyReader::open(path)?;
        self.analyze_lossy_with(reader, on_result)
    }

    /// Streams a pcap file lossily, collecting analyses in
    /// finalization order alongside the run report.
    ///
    /// # Errors
    ///
    /// See [`analyze_pcap_lossy_with`](Self::analyze_pcap_lossy_with).
    pub fn analyze_pcap_lossy(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<(Vec<Analysis>, LossyRunReport)> {
        let mut out = Vec::new();
        let report = self.analyze_pcap_lossy_with(path, |a| out.push(a))?;
        Ok((out, report))
    }

    /// Drives an open [`LossyReader`] to exhaustion, analyzing each
    /// connection as it finalizes and attributing capture anomalies to
    /// the connection they damaged (unattributable damage counts only
    /// in the run report).
    ///
    /// # Errors
    ///
    /// See [`analyze_pcap_lossy_with`](Self::analyze_pcap_lossy_with).
    pub fn analyze_lossy_with<R, F>(
        &self,
        mut reader: LossyReader<R>,
        mut on_result: F,
    ) -> Result<LossyRunReport>
    where
        R: std::io::Read,
        F: FnMut(Analysis),
    {
        let mut report = LossyRunReport::default();
        let mut sink = self.sink(|analysis: Analysis| {
            report.connections += 1;
            if analysis.verdict.is_quarantined() {
                report.quarantined += 1;
            }
            on_result(analysis);
        });
        read_lossy(&mut reader, &mut sink)?;
        sink.finish();
        report.counts = *reader.counts();
        report.frames = reader.decoder().frames_decoded();
        report.cross_traffic = reader.decoder().cross_traffic();
        Ok(report)
    }
}

/// Source: lossy views out of an open reader, borrowed against its
/// record buffer and never materialized. Cross traffic is skipped (the
/// decoder has already counted it); anomalies are charged to their
/// connection whether or not the frame itself survived.
fn read_lossy<R: std::io::Read, F: FnMut(Analysis)>(
    reader: &mut LossyReader<R>,
    sink: &mut Sink<'_, F>,
) -> Result<()> {
    while let Some(lossy) = reader.next_lossy_view()? {
        if lossy.is_cross_traffic() {
            continue;
        }
        if let Some(key) = connection_of(&lossy) {
            sink.ingest.note(key, &lossy.anomalies);
        }
        if let Some(frame) = &lossy.frame {
            sink.step(frame);
        }
    }
    Ok(())
}

/// The connection a lossy decode outcome is attributable to, if the
/// frame survived or at least its addresses could be trusted.
fn connection_of(lossy: &LossyFrameView<'_>) -> Option<ConnKey> {
    if let Some(frame) = &lossy.frame {
        return Some(ConnKey::of(frame));
    }
    lossy.endpoints.map(|(x, y)| ConnKey::of_endpoints(x, y))
}

/// Where a source's frames go: an [`Ingest`] on the calling thread,
/// each connection delivered the moment it finalizes.
struct Sink<'a, F> {
    analyzer: &'a Analyzer,
    ingest: Ingest,
    on_result: F,
}

impl<F: FnMut(Analysis)> Sink<'_, F> {
    /// One frame (capture order), and whatever it finalizes delivered.
    fn step(&mut self, frame: &impl FrameLike) {
        let (finalized, _) = self.ingest.step(frame);
        self.deliver(finalized);
    }

    fn deliver(&mut self, finalized: impl IntoIterator<Item = FinalizedConnection>) {
        for fin in finalized {
            (self.on_result)(self.ingest.analyze(fin, self.analyzer));
        }
    }

    /// Ends a run whose source read to the end: every connection still
    /// open is finalized, in ordinal order, each built and analysed
    /// before the next is built. A source that failed skips this and
    /// finalizes nothing further; whatever it had already finalized was
    /// delivered as it happened.
    fn finish(mut self) {
        let rest = self.ingest.finish();
        self.deliver(rest);
    }
}

/// The ingest core of one capture — tracker, BGP demux and
/// capture-quality ledger — shared by the batch pass (one per pass) and
/// the live monitor (one per source). [`step`](Self::step) takes a frame
/// through it, [`analyze`](Self::analyze) turns each connection that
/// finalizes into its [`Analysis`], and a tick reads the open state in
/// between through borrowing accessors.
///
/// **The settle rule.** Before a frame is fed, every log whose MCT
/// answer is final as of that frame's time settles
/// ([`BgpDemux::settle`]), but never past the time of the first frame
/// stepped since the open state was last read
/// ([`take_dirty`](Self::take_dirty), a watch's tick). So a log settles
/// only while it holds exactly the rows the last read saw, and a
/// snapshot of that read gets MCT's answer over those rows, whatever the
/// interval between reads. The batch pass never reads: it settles at
/// every frame's time.
#[derive(Debug)]
pub struct Ingest {
    tracker: ConnectionTracker,
    demux: BgpDemux,
    /// Capture anomalies per still-open connection.
    quality: HashMap<ConnKey, AnomalyCounts>,
    /// No log settles past this: [`Micros::MAX`] until the first read,
    /// then the time of the first frame stepped since the last one.
    settle_to: Option<Micros>,
}

impl Ingest {
    /// An empty ingest core whose tracker finalizes by `tracker`.
    pub fn new(tracker: TrackerConfig) -> Ingest {
        Ingest {
            tracker: ConnectionTracker::new(tracker),
            demux: BgpDemux::new(),
            quality: HashMap::new(),
            settle_to: Some(Micros::MAX),
        }
    }

    /// Charges capture anomalies to a connection's quarantine verdict,
    /// marking it dirty as a frame would.
    pub fn note(&mut self, key: ConnKey, anomalies: &[CaptureAnomaly]) {
        let counts = self.quality.entry(key).or_default();
        for anomaly in anomalies {
            counts.note(anomaly);
        }
        self.tracker.mark_dirty(key);
    }

    /// One frame (capture order, times never decreasing): settles by the
    /// settle rule, then feeds and tracks the frame. Returns the
    /// connections the advance of time finalized, by ordinal, and what
    /// the settle did.
    pub fn step(&mut self, frame: &impl FrameLike) -> (Vec<FinalizedConnection>, SettleCount) {
        let at = frame.timestamp();
        let bound = *self.settle_to.get_or_insert(at);
        let settled = self.demux.settle(at.min(bound));
        self.demux.feed(frame);
        (self.tracker.ingest(frame), settled)
    }

    /// The whole-lifetime analysis of a finalized connection, over its
    /// data sender's log and its capture anomalies, both taken.
    pub fn analyze(&mut self, fin: FinalizedConnection, analyzer: &Analyzer) -> Analysis {
        let extraction = self.demux.take(fin.key, fin.connection.sender);
        let counts = self.quality.remove(&fin.key).unwrap_or_default();
        analyzer.analyze_extracted_lossy(fin.connection, &extraction, counts)
    }

    /// Ends the capture: every connection still open, by ordinal, each
    /// built as the drain yields it ([`ConnectionTracker::drain`]), so a
    /// caller that analyses each before taking the next holds one built
    /// connection at a time. The tracker starts afresh under the same
    /// policy.
    pub fn finish(&mut self) -> Drain {
        let fresh = ConnectionTracker::new(self.tracker.config());
        std::mem::replace(&mut self.tracker, fresh).drain()
    }

    /// The open connections that saw frames or capture damage since the
    /// last call, by ordinal: the read the settle rule bounds.
    pub fn take_dirty(&mut self) -> Vec<ConnKey> {
        self.settle_to = None;
        self.tracker.take_dirty()
    }

    /// The open connections, lent.
    pub fn tracker(&self) -> &ConnectionTracker {
        &self.tracker
    }

    /// The open connections' reassembly and message logs, lent.
    pub fn demux(&self) -> &BgpDemux {
        &self.demux
    }

    /// The capture anomalies charged to an open connection so far.
    pub fn quality(&self, key: ConnKey) -> AnomalyCounts {
        self.quality.get(&key).copied().unwrap_or_default()
    }
}

/// Per-connection incremental BGP reassembly for both endpoints.
///
/// The data sender is unknown until a connection finalizes, so both
/// directions are reassembled; the loser (the ACK direction, which
/// carries little or no payload) is discarded at
/// [`take`](BgpDemux::take). What is kept per message is the flat
/// [`MessageLog`](tdat_bgp::MessageLog) — a row and the announced
/// prefixes, which is all the analysis reads — so an open connection
/// holds its map entry, 4 bytes per message, 16 per run of messages
/// one segment framed and 4 per announced prefix until it is taken or
/// its log settles, and beside them only
/// out-of-order data still parked and a partial message still
/// straddling segments: no segment-sized buffer is kept once a
/// segment's messages are framed. Live monitors that diagnose
/// still-open connections borrow that state with
/// [`snapshot`](BgpDemux::snapshot), which copies nothing and leaves
/// the streams in place. The batch pass and the monitors alike
/// [`settle`](BgpDemux::settle) the logs whose table transfer can no
/// longer change, which then hold MCT's answer and a row count only.
///
/// Settling is driven by a queue, not a scan: a log joins it when it
/// first announces a prefix, ordered by when its last counted UPDATE
/// (one that announced or withdrew a prefix) arrived, and a settle
/// visits only the entries the clock has passed by more than MCT's
/// `max_gap`. Each such entry's logs are read again: a log that is due
/// settles, one that has logged counted UPDATEs since goes back in at
/// the latest of them, and the entry of a connection already taken is
/// dropped. So a settle costs the entries due, not the logs open.
#[derive(Debug, Default)]
pub struct BgpDemux {
    streams: HashMap<ConnKey, SidePair>,
    queue: SettleQueue,
}

#[derive(Debug, Default)]
struct SidePair {
    /// Bytes sent by the key's lexicographically smaller endpoint.
    from_a: StreamExtractor,
    /// Bytes sent by the larger endpoint.
    from_b: StreamExtractor,
}

/// What one [`BgpDemux::settle`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SettleCount {
    /// Logs that settled.
    pub settled: usize,
    /// Settle queue entries visited: those the clock had passed. None
    /// while no log is due, however many are open.
    pub visited: usize,
}

/// The settle queue: a min-heap of 16-byte entries, one per connection
/// with a log that has announced a prefix and may yet settle (and,
/// until popped, one per such connection taken since).
///
/// An entry keeps its time as microseconds past `base`, in 32 bits. That
/// time is never later than its connection's last counted UPDATE, except
/// where it was clamped up to `base`, which lies
/// [`SLACK`](Self::SLACK) behind the clock it was set at and so, while
/// frame times do not decrease, before every horizon to come. So every
/// log that is due has an entry before the horizon, and a settle finds
/// it.
#[derive(Debug, Default)]
struct SettleQueue {
    heap: BinaryHeap<Reverse<Queued>>,
    base: Micros,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Queued {
    /// Microseconds past the queue's base.
    at: u32,
    key: ConnKey,
}

impl SettleQueue {
    /// How far `base` is put behind the clock: half of what an entry's
    /// 32 bits span, and far more than any `max_gap` MCT is run with.
    const SLACK: Micros = Micros(1 << 31);

    /// Queues `key` at `last`, a time no later than its last counted
    /// UPDATE, as of `clock`, the time of the frame fed or of the
    /// settle. A time past what 32 bits hold moves `base` up to `SLACK`
    /// behind the clock first, which rebuilds the heap: once per half
    /// hour of trace time at most.
    fn push(&mut self, last: Micros, key: ConnKey, clock: Micros) {
        if self.heap.is_empty() {
            self.base = clock - Self::SLACK;
        } else if (last - self.base).0 > i64::from(u32::MAX) {
            let base = clock - Self::SLACK;
            let shift = (base - self.base).0;
            let entries = std::mem::take(&mut self.heap).into_vec();
            self.heap = entries
                .into_iter()
                .map(|Reverse(q)| {
                    let at = (i64::from(q.at) - shift).clamp(0, i64::from(u32::MAX)) as u32;
                    Reverse(Queued { at, ..q })
                })
                .collect();
            self.base = base;
        }
        let at = (last - self.base).0.clamp(0, i64::from(u32::MAX)) as u32;
        self.heap.push(Reverse(Queued { at, key }));
    }

    /// Pops the earliest entry if it lies before `horizon`, with every
    /// copy of it: a key taken and fed again can be queued twice.
    fn pop_before(&mut self, horizon: Micros) -> Option<ConnKey> {
        let &Reverse(head) = self.heap.peek()?;
        if self.base + Micros(i64::from(head.at)) >= horizon {
            return None;
        }
        while self.heap.peek() == Some(&Reverse(head)) {
            self.heap.pop();
        }
        Some(head.key)
    }
}

impl BgpDemux {
    /// Creates an empty demultiplexer.
    pub fn new() -> BgpDemux {
        BgpDemux::default()
    }

    /// Feeds one frame's payload into its connection's reassembly
    /// (capture order). Accepts borrowed [`FrameView`](tdat_packet::FrameView)s as well as
    /// owned frames; the payload bytes are copied only if the stream's
    /// reassembler retains them. A log that announces its first prefix
    /// joins the settle queue.
    pub fn feed(&mut self, frame: &impl FrameLike) {
        let (at, key) = (frame.timestamp(), ConnKey::of(frame));
        let pair = self.streams.entry(key).or_default();
        let side = if frame.src() == key.a {
            &mut pair.from_a
        } else {
            &mut pair.from_b
        };
        let tcp = frame.tcp();
        let fresh = side.last_counted().is_none();
        side.push(at, tcp.seq, tcp.flags, frame.payload());
        if fresh {
            if let Some(last) = side.last_counted() {
                self.queue.push(last, key, at);
            }
        }
    }

    /// Removes the connection's streams and finishes the data-sender
    /// side. Its settle queue entry stays until it is due, and is then
    /// dropped.
    pub fn take(&mut self, key: ConnKey, sender: Endpoint) -> Extraction {
        let pair = self.streams.remove(&key).unwrap_or_default();
        if sender == key.a {
            pair.from_a.finish()
        } else {
            pair.from_b.finish()
        }
    }

    /// Settles every log whose table transfer MCT can no longer change
    /// as of `now` under [`MctConfig`]'s default, the configuration
    /// [`Analyzer::transfer_of`] runs
    /// ([`MessageLog::settle`](tdat_bgp::MessageLog::settle)): those
    /// whose last counted UPDATE lies more than `max_gap` before it. A
    /// settled log frees its rows and prefix arena;
    /// [`Analyzer::transfer_of`] answers from what it kept, exactly as
    /// MCT over the whole log would, provided no frame fed from here on
    /// is stamped before `now` ([`Ingest::step`] settles at the time of
    /// the frame it is about to feed, or earlier). A row stamped behind
    /// the horizon is counted, but it cannot reopen the transfer.
    ///
    /// Visits only the settle queue entries the horizon has passed, so
    /// with none due it costs one comparison, however many logs are
    /// open.
    pub fn settle(&mut self, now: Micros) -> SettleCount {
        let config = &MctConfig::default();
        let horizon = now - config.max_gap;
        let mut count = SettleCount::default();
        while let Some(key) = self.queue.pop_before(horizon) {
            count.visited += 1;
            let Some(pair) = self.streams.get_mut(&key) else {
                continue;
            };
            let mut next: Option<Micros> = None;
            for side in [&mut pair.from_a, &mut pair.from_b] {
                match side.last_counted() {
                    // Due. A log whose answer does not fit what a
                    // settled log keeps stays open, and leaves the queue.
                    Some(last) if last < horizon => {
                        count.settled += usize::from(side.settle(now, config));
                    }
                    Some(last) => next = Some(next.map_or(last, |n| n.min(last))),
                    None => {}
                }
            }
            if let Some(last) = next {
                self.queue.push(last, key, now);
            }
        }
        count
    }

    /// The extraction so far of the `sender` side of an open
    /// connection, lent in place: nothing is copied and the streams
    /// stay where they are for further feeding. `None` when no stream
    /// of the connection is held (never fed, or already taken).
    pub fn snapshot(&self, key: ConnKey, sender: Endpoint) -> Option<&Extraction> {
        let pair = self.streams.get(&key)?;
        Some(if sender == key.a {
            pair.from_a.extraction()
        } else {
            pair.from_b.extraction()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_bgp::{find_transfer_end_ref, BgpMessage, PathAttribute, Prefix, UpdateMessage};
    use tdat_packet::{FrameBuilder, TcpFlags};

    /// An UPDATE announcing the /24 numbered `i`.
    fn update(i: u32) -> Vec<u8> {
        let prefix = Prefix::new(Ipv4Addr::from(0x0b00_0000 + (i << 8)), 24).unwrap();
        let update = UpdateMessage::announce(vec![PathAttribute::Med(1)], vec![prefix]);
        BgpMessage::Update(update).to_bytes()
    }

    fn keepalive() -> Vec<u8> {
        BgpMessage::Keepalive.to_bytes()
    }

    /// Router `i`'s side of a session with its collector: a SYN, then
    /// segments in sequence.
    struct Router {
        out: FrameBuilder,
        seq: u32,
    }

    impl Router {
        fn new(i: u8) -> Router {
            let (router, collector) = (Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 0, 1, i));
            Router {
                out: FrameBuilder::new(router, collector).ports(179, 40_000),
                seq: 1,
            }
        }

        fn syn(&self, at: Micros) -> TcpFrame {
            self.out.clone().at(at).flags(TcpFlags::SYN).build()
        }

        fn segment(&mut self, at: Micros, payload: Vec<u8>) -> TcpFrame {
            let frame = self
                .out
                .clone()
                .at(at)
                .seq(self.seq)
                .ack_to(1)
                .payload(payload)
                .build();
            self.seq += frame.payload.len() as u32;
            frame
        }
    }

    /// Feeds `frame`, then settles at its time: what settled and what
    /// was visited.
    fn step(demux: &mut BgpDemux, frame: &TcpFrame) -> (usize, usize) {
        demux.feed(frame);
        let count = demux.settle(frame.timestamp);
        (count.settled, count.visited)
    }

    /// Three UPDATEs 10 ms apart, KEEPALIVEs 30 s and 61 s in — the last
    /// takes the clock past the log's horizon — and then an UPDATE
    /// stamped 59 s in: behind the horizon, and within MCT's gap of the
    /// table's last UPDATE.
    fn a_late_update() -> Vec<TcpFrame> {
        let mut router = Router::new(1);
        let mut frames = vec![router.syn(Micros::ZERO)];
        for i in 1..=3 {
            frames.push(router.segment(Micros::from_millis(10 * i), update(i as u32)));
        }
        frames.push(router.segment(Micros::from_secs(30), keepalive()));
        frames.push(router.segment(Micros::from_secs(61), keepalive()));
        frames.push(router.segment(Micros::from_secs(59), update(4)));
        frames
    }

    /// A row stamped behind the settle horizon — a frame fed out of time
    /// order, which `feed`'s precondition rules out — is counted, and
    /// cannot reopen the transfer its log settled: a log kept whole would
    /// take its prefix into the transfer.
    #[test]
    fn a_row_behind_the_settled_horizon_is_counted_and_reopens_nothing() {
        let analyzer = Analyzer::default();
        let frames = a_late_update();
        let (late, frames) = frames.split_last().unwrap();
        let (mut demux, mut whole) = (BgpDemux::new(), BgpDemux::new());
        let mut settled = Vec::new();
        for frame in frames {
            whole.feed(frame);
            settled.push(step(&mut demux, frame).0);
        }
        assert_eq!(
            settled,
            [0, 0, 0, 0, 0, 1],
            "61 s after the last UPDATE, not 30 s"
        );
        let (key, sender) = (ConnKey::of(late), late.src());
        let transfer = |demux: &BgpDemux| {
            let extraction = demux.snapshot(key, sender).expect("fed");
            let rows = extraction.messages.len();
            (rows, analyzer.transfer_of(Micros::ZERO, extraction, rows))
        };
        let (rows, at_settle) = transfer(&demux);
        assert_eq!(at_settle.as_ref().map(|t| t.prefix_count), Some(3));

        demux.feed(late);
        whole.feed(late);
        assert_eq!(transfer(&demux), (rows + 1, at_settle), "counted, not read");
        let (_, kept_whole) = transfer(&whole);
        assert_eq!(kept_whole.map(|t| t.prefix_count), Some(4));
    }

    /// The same rule holds in the batch pass, which settles as it reads:
    /// the frame 61 s in settles the router's log, and the UPDATE stamped
    /// 59 s in that follows is counted, not read, where MCT over the
    /// session's whole message list takes it in.
    #[test]
    fn the_batch_pass_settles_as_it_reads_and_a_late_row_reopens_nothing() {
        let frames = a_late_update();
        let analyses = StreamAnalyzer::default().analyze_frames(&frames);
        assert_eq!(analyses.len(), 1);
        let transfer = analyses[0].transfer.as_ref();
        assert_eq!(transfer.map(|t| t.prefix_count), Some(3));
        let (conn, whole) = &tdat_pcap2bgp::extract_all(&frames)[0];
        let updates = whole
            .messages
            .iter()
            .filter_map(|(at, message)| match message {
                BgpMessage::Update(update) => Some((*at, update)),
                _ => None,
            });
        let kept_whole = find_transfer_end_ref(conn.profile.start, updates, &MctConfig::default());
        assert_eq!(kept_whole.map(|t| t.prefix_count), Some(4));
    }

    /// A settle visits only the queue entries the horizon has passed. A
    /// log popped before it is due, because it logged a counted UPDATE
    /// after it was queued, goes back in at that UPDATE and settles
    /// exactly once the clock lies more than `max_gap` past it; the
    /// entry of a connection taken before it was due is dropped; and a
    /// settled log does not come back.
    #[test]
    fn the_settle_queue_visits_only_what_is_due() {
        let max_gap = MctConfig::default().max_gap;
        let secs = Micros::from_secs;
        let mut demux = BgpDemux::new();
        let (mut router, mut gone) = (Router::new(1), Router::new(2));
        let taken = gone.syn(Micros::ZERO);
        for frame in [taken.clone(), gone.segment(secs(1), update(9))] {
            assert_eq!(step(&mut demux, &frame), (0, 0));
        }
        demux.take(ConnKey::of(&taken), taken.src());
        assert_eq!(step(&mut demux, &router.syn(secs(1))), (0, 0));
        let mut at = |time: Micros, payload: Vec<u8>| {
            let frame = router.segment(time, payload);
            step(&mut demux, &frame)
        };
        assert_eq!(at(secs(1), update(1)), (0, 0));
        assert_eq!(at(secs(50), update(2)), (0, 0));
        assert_eq!(
            at(secs(70), keepalive()),
            (0, 2),
            "one dropped, one back in"
        );
        assert_eq!(at(secs(50) + max_gap, keepalive()), (0, 0));
        assert_eq!(at(secs(50) + max_gap + Micros(1), keepalive()), (1, 1));
        assert_eq!(at(secs(500), update(3)), (0, 0));
        assert_eq!(at(secs(1_000), keepalive()), (0, 0));
    }

    /// An entry keeps its time in 32 bits of microseconds past a base
    /// that moves up as the clock does, yet a settle stays exact: at
    /// epoch timestamps, with logs queued an hour apart, and with an
    /// entry still queued, and due, when the base moves past it.
    #[test]
    fn the_settle_queue_is_exact_across_an_hour_of_epoch_time() {
        let max_gap = MctConfig::default().max_gap;
        let t0 = Micros::from_secs(1_700_000_000);
        let hour = Micros::from_secs(3_600);
        let mut demux = BgpDemux::new();
        let (mut early, mut mid, mut late) = (Router::new(1), Router::new(2), Router::new(3));
        // Fed without a settle, as a watch feeds between ticks.
        for frame in [
            early.syn(t0),
            early.segment(t0, update(1)),
            mid.syn(t0 + hour),
            mid.segment(t0 + hour, update(2)),
            late.syn(t0 + hour),
            late.segment(t0 + hour + Micros(10), update(3)),
        ] {
            demux.feed(&frame);
        }
        let settled = demux.settle(t0 + hour + Micros(10));
        assert_eq!((settled.settled, settled.visited), (1, 1), "the early log");
        let due = t0 + hour + max_gap;
        let frame = mid.segment(due, keepalive());
        assert_eq!(step(&mut demux, &frame), (0, 0));
        let frame = mid.segment(due + Micros(1), keepalive());
        assert_eq!(step(&mut demux, &frame), (1, 1), "the mid log");
        let frame = mid.segment(due + Micros(10), keepalive());
        assert_eq!(step(&mut demux, &frame), (0, 0));
        let frame = mid.segment(due + Micros(11), keepalive());
        assert_eq!(step(&mut demux, &frame), (1, 1), "the late log");
    }
}
