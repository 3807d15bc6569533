//! The batch engine: one loop, two sinks, three sources.
//!
//! [`StreamAnalyzer`] is the primary entry point of the crate. Every
//! entry point is the same pass — demultiplex frames into
//! per-connection state with a [`ConnectionTracker`], feed payload
//! bytes straight into incremental BGP reassembly
//! ([`tdat_pcap2bgp::StreamExtractor`], which keeps a flat message log
//! per connection, not decoded messages), run the
//! series/factor/detector pipeline on each connection as it finalizes,
//! deliver the [`Analysis`] results in finalization order — and the
//! entry points differ only in their **source**, what is read:
//!
//! * strict zero-copy [`FrameView`](tdat_packet::FrameView)s from a
//!   pcap path ([`analyze_pcap_with`](StreamAnalyzer::analyze_pcap_with)),
//! * owned [`TcpFrame`]s from any iterator
//!   ([`analyze_stream`](StreamAnalyzer::analyze_stream)),
//! * damage-tolerant views from a [`LossyReader`]
//!   ([`analyze_lossy_with`](StreamAnalyzer::analyze_lossy_with)), whose
//!   anomalies are charged to the connection they hit. The strict
//!   sources are this one with nothing to charge.
//!
//! A source steps its frames into one of two **sinks**, picked by
//! [`StreamOptions::shards`] and by nothing else: *inline* — tracker,
//! demux and analysis on the calling thread, the serial pass and the
//! default — or *lanes*, the partitioned pass of the `shardbatch`
//! module, whose output is byte-identical. When a source fails, the
//! sink is drained before the error is returned: every connection that
//! finalized ahead of the failing record is delivered, at any lane
//! count.
//!
//! Unlike the batch path ([`Analyzer::analyze_pcap`]), which
//! materializes the whole trace, memory here is proportional to the
//! *open* connections' segment metadata and message logs (16 bytes per
//! BGP message, 8 per announced prefix) plus bounded reassembly
//! buffers — frame payloads are dropped as soon as they are ingested.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use tdat_packet::{
    AnomalyCounts, CaptureAnomaly, FrameBlock, FrameLike, LossyFrameView, LossyReader, MmapReader,
    PcapReader, TcpFrame,
};
use tdat_pcap2bgp::{Extraction, StreamExtractor};
use tdat_trace::{ConnKey, ConnectionTracker, Endpoint, FinalizedConnection, TrackerConfig};

use crate::analyzer::{Analysis, Analyzer};
use crate::config::AnalyzerConfig;
use crate::error::Result;
use crate::shardbatch::ShardCoordinator;

/// Tuning of the streaming engine.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// No effect. The thread pool it sized is gone; the field outlives
    /// it only until the repository benchmark, which builds this struct
    /// as a literal, stops naming it.
    pub workers: usize,
    /// When connections are finalized (close/idle policy).
    pub tracker: TrackerConfig,
    /// Worker lanes. `0` and `1` (`0` is the default) both mean the
    /// serial pass on the calling thread; `N >= 2` splits the capture
    /// across `N` persistent lanes by connection hash
    /// ([`tdat_trace::shard_of`]), each owning its slice's tracking,
    /// reassembly, and analysis, with results merged back to serial
    /// finalization order — output is byte-identical at every count. On
    /// the repository benchmark's 2-core host two lanes measure slower
    /// than serial on every workload (`benchmark/README.md`,
    /// `core.sharded2.speedup`).
    pub shards: usize,
}

/// The batch engine: per-connection frame ingestion, close/idle
/// finalization, and analysis of each connection as it finalizes — see
/// the module docs for the sources and sinks.
///
/// # Examples
///
/// ```no_run
/// use tdat::StreamAnalyzer;
///
/// let engine = StreamAnalyzer::new(Default::default());
/// engine.analyze_pcap_with("bgp-session.pcap", |analysis| {
///     println!("{} → {}", analysis.sender.0, analysis.receiver.0);
///     println!("{}", analysis.vector);
/// })?;
/// # Ok::<(), tdat::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamAnalyzer {
    analyzer: Analyzer,
    pub(crate) options: StreamOptions,
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
    /// Creates a streaming analyzer with default options.
    pub fn new(config: AnalyzerConfig) -> StreamAnalyzer {
        StreamAnalyzer::with_options(config, StreamOptions::default())
    }

    /// Creates a streaming analyzer with explicit options.
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

    /// The sink the lane count selects.
    fn sink<F: FnMut(Analysis)>(&self, on_result: F) -> Sink<'_, F> {
        if self.options.shards > 1 {
            Sink::Lanes(ShardCoordinator::new(self, on_result))
        } else {
            Sink::Inline(InlineSink {
                analyzer: &self.analyzer,
                tracker: ConnectionTracker::new(self.options.tracker),
                demux: BgpDemux::default(),
                quality: HashMap::new(),
                on_result,
            })
        }
    }

    /// Streams a pcap file, invoking `on_result` for each analyzed
    /// connection in finalization order. Frames are decoded zero-copy
    /// against the reader's buffer; nothing is materialized per frame.
    ///
    /// # Errors
    ///
    /// Fails on I/O or pcap decode errors, or if a lane dies — after
    /// delivering every connection finalized before the failure.
    pub fn analyze_pcap_with<F>(&self, path: impl AsRef<Path>, on_result: F) -> Result<()>
    where
        F: FnMut(Analysis),
    {
        let mut sink = self.sink(on_result);
        let read = read_pcap(path.as_ref(), &mut sink);
        sink.finish(read)
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

    /// Streams already-decoded frames (capture order), invoking
    /// `on_result` per connection in finalization order.
    ///
    /// # Errors
    ///
    /// Fails on a decode error from the iterator, or if a lane dies —
    /// after delivering every connection finalized before the failure.
    pub fn analyze_stream<I, F>(&self, frames: I, on_result: F) -> Result<()>
    where
        I: IntoIterator<Item = tdat_packet::Result<TcpFrame>>,
        F: FnMut(Analysis),
    {
        let mut sink = self.sink(on_result);
        let read = frames.into_iter().try_for_each(|frame| sink.step(&frame?));
        sink.finish(read)
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
        let read = read_lossy(&mut reader, &mut sink);
        sink.finish(read)?;
        report.counts = *reader.counts();
        report.frames = reader.decoder().frames_decoded();
        report.cross_traffic = reader.decoder().cross_traffic();
        Ok(report)
    }
}

/// Source: strict views out of a pcap file. This is the one place a
/// pcap reader is picked. Without lanes, a read window over the file
/// decodes one record at a time in place; with lanes the file is mapped
/// and decoded a block at a time (one shrink check per block), which
/// keeps the calling thread — all the lanes wait on — on the cheapest
/// decoder.
fn read_pcap<F: FnMut(Analysis)>(path: &Path, sink: &mut Sink<'_, F>) -> Result<()> {
    match sink {
        Sink::Inline(sink) => {
            let mut reader = PcapReader::open(path)?;
            while let Some(frame) = reader.next_view()? {
                sink.step(&frame);
            }
        }
        Sink::Lanes(sink) => {
            let mut reader = MmapReader::open(path)?;
            let mut block = FrameBlock::new();
            loop {
                let views = reader.next_views_into(&mut block)?;
                if views.is_empty() {
                    break;
                }
                for frame in &views {
                    sink.step(&frame)?;
                }
            }
        }
    }
    Ok(())
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
            sink.note(key, &lossy.anomalies);
        }
        if let Some(frame) = &lossy.frame {
            sink.step(frame)?;
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

/// Where a source's frames go. Both sinks take the same three
/// operations, so each source is written once: [`note`](Self::note)
/// anomalies against a connection, [`step`](Self::step) a frame
/// (capture order), [`finish`](Self::finish).
enum Sink<'a, F: FnMut(Analysis)> {
    Inline(InlineSink<'a, F>),
    Lanes(ShardCoordinator<F>),
}

impl<F: FnMut(Analysis)> Sink<'_, F> {
    /// Charges capture anomalies to a connection: its analysis, when it
    /// finalizes, carries them into the quarantine verdict.
    fn note(&mut self, key: ConnKey, anomalies: &[CaptureAnomaly]) {
        let quality = match self {
            Sink::Inline(sink) => &mut sink.quality,
            Sink::Lanes(sink) => &mut sink.quality,
        };
        let counts = quality.entry(key).or_default();
        for anomaly in anomalies {
            counts.note(anomaly);
        }
    }

    fn step(&mut self, frame: &impl FrameLike) -> Result<()> {
        match self {
            Sink::Inline(sink) => sink.step(frame),
            Sink::Lanes(sink) => sink.step(frame)?,
        }
        Ok(())
    }

    /// Ends the run with the source's outcome. A source that read to
    /// the end finalizes every connection still open, in ordinal order;
    /// one that failed finalizes nothing further, but whatever it had
    /// already finalized is still delivered before its error comes
    /// back.
    fn finish(self, read: Result<()>) -> Result<()> {
        match self {
            Sink::Inline(sink) => sink.finish(read),
            Sink::Lanes(sink) => sink.finish(read),
        }
    }
}

/// The inline sink: one tracker, one demux and the capture-quality
/// ledger on the calling thread, each connection analyzed and delivered
/// the moment it finalizes — so there is never anything to drain.
struct InlineSink<'a, F> {
    analyzer: &'a Analyzer,
    tracker: ConnectionTracker,
    demux: BgpDemux,
    /// Capture anomalies per still-open connection (lossy sources).
    quality: HashMap<ConnKey, AnomalyCounts>,
    on_result: F,
}

impl<F: FnMut(Analysis)> InlineSink<'_, F> {
    fn step(&mut self, frame: &impl FrameLike) {
        self.demux.feed(frame);
        for fin in self.tracker.ingest(frame) {
            self.deliver(fin);
        }
    }

    fn deliver(&mut self, fin: FinalizedConnection) {
        let extraction = self.demux.take(fin.key, fin.connection.sender);
        let counts = self.quality.remove(&fin.key).unwrap_or_default();
        let analysis = self
            .analyzer
            .analyze_extracted_lossy(fin.connection, &extraction, counts);
        (self.on_result)(analysis);
    }

    fn finish(mut self, read: Result<()>) -> Result<()> {
        read?;
        let tracker = std::mem::replace(
            &mut self.tracker,
            ConnectionTracker::new(TrackerConfig::batch()),
        );
        for fin in tracker.finish() {
            self.deliver(fin);
        }
        Ok(())
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
/// holds 16 bytes per message and 8 per announced prefix until it is
/// taken. Live monitors that diagnose still-open connections borrow
/// that state with [`snapshot`](BgpDemux::snapshot), which copies
/// nothing and leaves the streams in place.
#[derive(Debug, Default)]
pub struct BgpDemux {
    streams: HashMap<ConnKey, SidePair>,
}

#[derive(Debug, Default)]
struct SidePair {
    /// Bytes sent by the key's lexicographically smaller endpoint.
    from_a: StreamExtractor,
    /// Bytes sent by the larger endpoint.
    from_b: StreamExtractor,
}

impl BgpDemux {
    /// Creates an empty demultiplexer.
    pub fn new() -> BgpDemux {
        BgpDemux::default()
    }

    /// Feeds one frame's payload into its connection's reassembly
    /// (capture order). Accepts borrowed [`FrameView`](tdat_packet::FrameView)s as well as
    /// owned frames; the payload bytes are copied only if the stream's
    /// reassembler retains them.
    pub fn feed(&mut self, frame: &impl FrameLike) {
        let key = ConnKey::of(frame);
        let pair = self.streams.entry(key).or_default();
        let side = if frame.src() == key.a {
            &mut pair.from_a
        } else {
            &mut pair.from_b
        };
        let tcp = frame.tcp();
        side.push(frame.timestamp(), tcp.seq, tcp.flags, frame.payload());
    }

    /// Removes the connection's streams and finishes the data-sender
    /// side.
    pub fn take(&mut self, key: ConnKey, sender: Endpoint) -> Extraction {
        let pair = self.streams.remove(&key).unwrap_or_default();
        if sender == key.a {
            pair.from_a.finish()
        } else {
            pair.from_b.finish()
        }
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

/// Restores dispatch order: items arrive tagged with the dense sequence
/// number they were issued under, in any order, and leave in sequence —
/// an item is held until every one before it has been emitted.
#[derive(Debug)]
pub(crate) struct ReorderBuffer<T> {
    held: BTreeMap<usize, T>,
    /// Items emitted so far, which is also the next sequence number due.
    pub(crate) emitted: usize,
}

impl<T> ReorderBuffer<T> {
    pub(crate) fn new() -> ReorderBuffer<T> {
        ReorderBuffer {
            held: BTreeMap::new(),
            emitted: 0,
        }
    }

    pub(crate) fn insert(&mut self, seq: usize, item: T, emit: &mut impl FnMut(T)) {
        self.held.insert(seq, item);
        while let Some(item) = self.held.remove(&self.emitted) {
            emit(item);
            self.emitted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any arrival order of `0..n` leaves in sequence, and a missing
        /// sequence number holds back everything behind it.
        #[test]
        fn reorder_buffer_emits_in_dispatch_order(
            keys in prop::collection::vec(any::<u32>(), 1..40),
            gap in any::<usize>(),
        ) {
            let n = keys.len();
            let mut arrival: Vec<usize> = (0..n).collect();
            arrival.sort_by_key(|&seq| keys[seq]);
            let gap = gap % n;

            let mut reorder = ReorderBuffer::new();
            let mut out = Vec::new();
            for &seq in arrival.iter().filter(|&&seq| seq != gap) {
                reorder.insert(seq, seq, &mut |item| out.push(item));
            }
            prop_assert_eq!(&out, &(0..gap).collect::<Vec<_>>());
            prop_assert_eq!(reorder.emitted, gap);

            reorder.insert(gap, gap, &mut |item| out.push(item));
            prop_assert_eq!(&out, &(0..n).collect::<Vec<_>>());
            prop_assert_eq!(reorder.emitted, n);
        }
    }
}
