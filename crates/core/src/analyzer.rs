//! The per-connection analysis: one connection and its BGP messages
//! in, delay factors out (Fig. 10).

use tdat_bgp::{MctConfig, TableTransfer};
use tdat_packet::AnomalyCounts;
use tdat_timeset::{Micros, Span};
use tdat_trace::{label_segments, ConnProfile, LabelConfig, SegLabel, Segment, TcpConnection};

use crate::config::AnalyzerConfig;
use crate::detect::{
    find_consecutive_losses, find_delayed_ack_interaction, find_zero_ack_bug, infer_timer,
    ConsecutiveLosses, DelayedAckInteraction, InferredTimer, ZeroAckBug,
};
use crate::factors::{delay_vector_with, DelayVector};
use crate::preprocess::{shift_acks_into, ShiftedTrace};
use crate::quarantine::{QuarantineConfig, Verdict};
use crate::series::{generate_alert_series, generate_series_with, SeriesSet};

/// The complete analysis of one TCP connection.
#[derive(Debug)]
pub struct Analysis {
    /// The connection's endpoints and profile.
    pub profile: ConnProfile,
    /// Data-sender endpoint.
    pub sender: tdat_trace::Endpoint,
    /// Receiver endpoint.
    pub receiver: tdat_trace::Endpoint,
    /// The analysis period (table-transfer duration when MCT applies).
    pub period: Span,
    /// The preprocessed (ACK-shifted) trace.
    pub trace: ShiftedTrace,
    /// Per-segment labels for the data direction.
    pub labels: Vec<SegLabel>,
    /// The generated event series.
    pub series: SeriesSet,
    /// The delay-factor output vector.
    pub vector: DelayVector,
    /// The table transfer identified by MCT, if the connection carried
    /// decodable BGP updates.
    pub transfer: Option<TableTransfer>,
    /// Capture anomalies attributed to this connection (zero on strict
    /// ingestion paths).
    pub anomalies: AnomalyCounts,
    /// Capture-quality classification; [`Verdict::Quarantined`] means
    /// the factor attribution must not be trusted.
    pub verdict: Verdict,
}

impl Analysis {
    /// Detector: repetitive sender timer (§IV-B).
    pub fn infer_timer(&self, min_gaps: usize) -> Option<InferredTimer> {
        infer_timer(&self.series, min_gaps)
    }

    /// Detector: consecutive-loss episodes (§IV-B).
    pub fn consecutive_losses(&self, config: &AnalyzerConfig) -> Vec<ConsecutiveLosses> {
        find_consecutive_losses(
            &self.series,
            config.consecutive_loss_threshold,
            config.episode_gap,
        )
    }

    /// Detector: the zero-window-probe bug (§IV-B).
    pub fn zero_ack_bug(&self) -> Option<ZeroAckBug> {
        find_zero_ack_bug(&self.series)
    }

    /// Detector: spurious retransmissions from the delayed-ACK / RTO
    /// race (Table II's "misc." row).
    pub fn delayed_ack_interaction(&self) -> Option<DelayedAckInteraction> {
        find_delayed_ack_interaction(&self.series)
    }

    /// Renders the Fig. 11-style series plot.
    pub fn plot(&self, width: usize) -> String {
        crate::plot::render_series_set(&self.series, width)
    }
}

/// A still-open connection as a live monitor's tick reads it: what its
/// alerts, its peer-group correlation and its stall check look at, and
/// no more. [`Analyzer::analyze_partial_lossy`] makes one;
/// [`Analyzer::complete`] turns one into the whole [`Analysis`], given
/// the connection it was made from.
#[derive(Debug)]
pub struct PartialAnalysis {
    /// The connection's profile.
    pub profile: ConnProfile,
    /// Data-sender endpoint.
    pub sender: tdat_trace::Endpoint,
    /// Receiver endpoint.
    pub receiver: tdat_trace::Endpoint,
    /// The analysis period: the window, clipped to the connection.
    pub period: Span,
    /// The series the detectors of a live view read — `UpstreamLoss`,
    /// `DownstreamLoss`, `SpuriousRetx`, `ZeroWindow`, `SendAppLimited`
    /// — with `WindowProbes` and `Outstanding`, each exactly as the
    /// whole analysis has it. The others are empty.
    pub series: SeriesSet,
    /// Capture anomalies attributed to this connection.
    pub anomalies: AnomalyCounts,
    /// Capture-quality classification.
    pub verdict: Verdict,
}

/// The per-connection steps of T-DAT: configure once, then analyze
/// connections whose BGP messages are already extracted. Frames and
/// captures go through [`StreamAnalyzer`](crate::StreamAnalyzer), which
/// tracks and reassembles each connection and calls
/// [`analyze_extracted_lossy`](Self::analyze_extracted_lossy) as it
/// finalizes; the live monitor calls
/// [`analyze_partial_lossy`](Self::analyze_partial_lossy) on connections
/// still open.
///
/// # Examples
///
/// The engine's inline pass, by hand:
///
/// ```no_run
/// use tdat::{Analyzer, BgpDemux, TrackerConfig};
/// use tdat_packet::AnomalyCounts;
/// use tdat_trace::ConnectionTracker;
///
/// let frames = tdat_packet::read_pcap_file("bgp-session.pcap")?;
/// let analyzer = Analyzer::default();
/// let mut tracker = ConnectionTracker::new(TrackerConfig::batch());
/// let mut demux = BgpDemux::new();
/// for frame in &frames {
///     demux.feed(frame);
///     tracker.ingest(frame);
/// }
/// for fin in tracker.finish() {
///     let extraction = demux.take(fin.key, fin.connection.sender);
///     let analysis =
///         analyzer.analyze_extracted_lossy(fin.connection, &extraction, AnomalyCounts::default());
///     println!("{}", analysis.vector);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    config: AnalyzerConfig,
    label_config: LabelConfig,
    mct: MctConfig,
    quarantine: QuarantineConfig,
}

impl Analyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Analyzer {
        Analyzer {
            config,
            label_config: LabelConfig::default(),
            mct: MctConfig::default(),
            quarantine: QuarantineConfig::default(),
        }
    }

    /// Replaces the capture-quality quarantine budgets.
    pub fn with_quarantine(mut self, quarantine: QuarantineConfig) -> Analyzer {
        self.quarantine = quarantine;
        self
    }

    /// The analyzer configuration.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// The capture-quality quarantine budgets.
    pub fn quarantine(&self) -> &QuarantineConfig {
        &self.quarantine
    }

    /// Analyzes a connection whose BGP messages are already extracted —
    /// the batch engine's step, which owns both pieces and
    /// so moves the profile and segments into the [`Analysis`] instead
    /// of cloning them. `anomalies` are the capture anomalies a lossy
    /// ingestion path attributed to this connection (the default for a
    /// clean capture); the resulting [`Analysis::verdict`] reflects the
    /// quarantine budget.
    pub fn analyze_extracted_lossy(
        &self,
        conn: TcpConnection,
        extraction: &tdat_pcap2bgp::Extraction,
        anomalies: AnomalyCounts,
    ) -> Analysis {
        let transfer = self.transfer_of(conn.profile.start, extraction, extraction.messages.len());
        let period_end = transfer
            .as_ref()
            .map(|t| t.span.end)
            .unwrap_or(conn.profile.end)
            .max(conn.profile.start);
        let period = Span::new(conn.profile.start, period_end);
        let verdict = self.quarantine.assess(&anomalies, extraction);
        self.build_analysis(conn, period, transfer, anomalies, verdict)
    }

    /// The table transfer MCT finds in the UPDATEs among the first
    /// `rows` messages of `extraction`'s log, for a connection that
    /// started at `start`, as the log answers it
    /// ([`MessageLog::transfer_end`](tdat_bgp::MessageLog::transfer_end)):
    /// a scan in place while it is open, cloning nothing, and the answer
    /// it kept once it has [settled](crate::BgpDemux::settle). A log is
    /// only ever appended to while its connection is open, so a caller
    /// that noted the log's length at some moment can ask later for the
    /// answer as of that moment; `extraction.messages.len()` asks for it
    /// as of now.
    pub fn transfer_of(
        &self,
        start: Micros,
        extraction: &tdat_pcap2bgp::Extraction,
        rows: usize,
    ) -> Option<TableTransfer> {
        extraction.messages.transfer_end(start, rows, &self.mct)
    }

    /// The MCT configuration: read here and by the settle queue
    /// ([`BgpDemux::settle`](crate::BgpDemux::settle)), which must keep
    /// the answer this analyzer would find.
    pub(crate) fn mct(&self) -> &MctConfig {
        &self.mct
    }

    /// Analyzes a point-in-time snapshot of a *still-open* connection
    /// over a trailing `window` — the live-monitoring entry point — as
    /// far as a live view reads it ([`PartialAnalysis`]).
    ///
    /// The analysis period is `window` clipped to start no earlier than
    /// the connection itself; unlike
    /// [`analyze_extracted_lossy`](Self::analyze_extracted_lossy) it is
    /// *not* clipped to the MCT transfer end, because a live view must
    /// keep counting silence up to "now" (`window.end`) — that is
    /// exactly how a stalled transfer shows up. Nothing a live view
    /// reads needs MCT, the factor vector or the series behind it, so
    /// none of them is computed, and the preprocessed trace and labels
    /// are dropped once the series are made; a caller that reports the
    /// connection asks [`complete`](Self::complete) for the rest — the
    /// monitor does so only when a snapshot is pulled. `anomalies` are
    /// as for `analyze_extracted_lossy`.
    pub fn analyze_partial_lossy(
        &self,
        conn: TcpConnection,
        extraction: &tdat_pcap2bgp::Extraction,
        window: Span,
        anomalies: AnomalyCounts,
    ) -> PartialAnalysis {
        let start = window.start.max(conn.profile.start);
        let period = Span::new(start, window.end.max(start));
        let verdict = self.quarantine.assess(&anomalies, extraction);
        let labels = label_segments(&conn, &self.label_config);
        let TcpConnection {
            sender,
            receiver,
            segments,
            profile,
        } = conn;
        let trace = self.preprocess(segments, &profile);
        let series = generate_alert_series(
            &trace,
            &labels,
            period,
            profile.max_receiver_window,
            profile.rtt,
            &self.config,
            &mut tdat_timeset::SpanScratch::new(),
        );
        PartialAnalysis {
            profile,
            sender,
            receiver,
            period,
            series,
            anomalies,
            verdict,
        }
    }

    /// The whole analysis of the connection `partial` was made from, with
    /// `transfer` as its MCT answer: what
    /// [`analyze_partial_lossy`](Self::analyze_partial_lossy) left out,
    /// computed over `conn`, which must be that connection as it stood
    /// then (a tracker rebuilds it from the frames it had:
    /// [`ConnectionTracker::snapshot_first`](tdat_trace::ConnectionTracker::snapshot_first)).
    /// Period, verdict and anomalies are `partial`'s.
    pub fn complete(
        &self,
        conn: TcpConnection,
        partial: &PartialAnalysis,
        transfer: Option<TableTransfer>,
    ) -> Analysis {
        debug_assert_eq!(conn.profile, partial.profile, "the connection as it stood");
        self.build_analysis(
            conn,
            partial.period,
            transfer,
            partial.anomalies,
            partial.verdict.clone(),
        )
    }

    /// The shared pipeline tail: label, ACK-shift, generate series over
    /// `period`, and compute the factor vector.
    fn build_analysis(
        &self,
        conn: TcpConnection,
        period: Span,
        transfer: Option<TableTransfer>,
        anomalies: AnomalyCounts,
        verdict: Verdict,
    ) -> Analysis {
        let labels = label_segments(&conn, &self.label_config);
        let TcpConnection {
            sender,
            receiver,
            segments,
            profile,
        } = conn;
        let trace = self.preprocess(segments, &profile);
        // One scratch pool serves the whole analysis: every span-set
        // intermediate in series generation and factor classification
        // draws from it, so buffer count stays constant per connection
        // regardless of how many set operations run.
        let mut scratch = tdat_timeset::SpanScratch::new();
        let series = generate_series_with(
            &trace,
            &labels,
            period,
            profile.mss.unwrap_or(1448),
            profile.max_receiver_window,
            profile.rtt,
            &self.config,
            &mut scratch,
        );
        let vector = delay_vector_with(&series, &self.config, &mut scratch);
        Analysis {
            profile,
            sender,
            receiver,
            period,
            trace,
            labels,
            series,
            vector,
            transfer,
            anomalies,
            verdict,
        }
    }

    /// The preprocessed trace of a connection's own segments: ACK-shifted
    /// in place, or as captured when shifting is disabled — moved, never
    /// copied, either way.
    fn preprocess(&self, segments: Vec<Segment>, profile: &ConnProfile) -> ShiftedTrace {
        if self.config.disable_ack_shift {
            ShiftedTrace {
                segments,
                shifts: Vec::new(),
            }
        } else {
            shift_acks_into(segments, profile)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_bgp::TableGenerator;
    use tdat_packet::{FrameBuilder, TcpFrame};
    use tdat_timeset::Micros;

    /// Builds a simple clean transfer trace: handshake + update stream
    /// in MSS chunks with prompt ACKs.
    fn clean_transfer(routes: usize) -> Vec<TcpFrame> {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let stream = TableGenerator::new(3)
            .routes(routes)
            .generate()
            .to_update_stream();
        let mut frames = Vec::new();
        let mut t = 0i64;
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(0)
                .flags(tdat_packet::TcpFlags::SYN)
                .option(tdat_packet::TcpOption::Mss(1448))
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
                .flags(tdat_packet::TcpFlags::SYN | tdat_packet::TcpFlags::ACK)
                .option(tdat_packet::TcpOption::Mss(1448))
                .window(65535)
                .build(),
        );
        t += 2000;
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(1)
                .ack_to(1)
                .window(65535)
                .build(),
        );
        let mut seq = 1u32;
        for chunk in stream.chunks(1448) {
            t += 500;
            frames.push(
                FrameBuilder::new(a, b)
                    .at(Micros(t))
                    .ports(179, 40000)
                    .seq(seq)
                    .ack_to(1)
                    .payload(chunk.to_vec())
                    .build(),
            );
            seq = seq.wrapping_add(chunk.len() as u32);
            t += 300;
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

    #[test]
    fn end_to_end_analysis_of_clean_transfer() {
        let frames = clean_transfer(200);
        let analyses = crate::StreamAnalyzer::default().analyze_frames(&frames);
        assert_eq!(analyses.len(), 1);
        let a = &analyses[0];
        assert_eq!(a.sender.1, 179);
        let transfer = a.transfer.as_ref().expect("updates decodable");
        assert_eq!(transfer.prefix_count, 200);
        // No losses on a clean trace.
        assert!(a.series.all_loss().is_empty());
        assert!(a.zero_ack_bug().is_none());
        assert!(a.consecutive_losses(&AnalyzerConfig::default()).is_empty());
        // Ratios are within [0, 1].
        for (_, r) in a.vector.factors {
            assert!((0.0..=1.0).contains(&r), "{r}");
        }
        // The plot renders without panicking and includes the series.
        let plot = a.plot(60);
        assert!(plot.contains("Transmission"));
    }

    #[test]
    fn analyze_partial_clips_period_to_window() {
        let frames = clean_transfer(150);
        let (conn, whole) = tdat_pcap2bgp::extract_all(&frames).remove(0);
        let extraction = whole.to_log();
        let last = frames.last().unwrap().timestamp;
        // A trailing window covering the second half of the capture,
        // reaching past the last frame (live "now").
        let now = last + Micros::from_millis(10);
        let window = Span::new(last / 2, now);
        let analyzer = Analyzer::default();
        let partial = analyzer.analyze_partial_lossy(
            conn.clone(),
            &extraction,
            window,
            AnomalyCounts::default(),
        );
        assert_eq!(partial.period, window, "window within the connection");
        let rows = extraction.messages.len();
        let transfer = analyzer.transfer_of(conn.profile.start, &extraction, rows);
        assert_eq!(transfer.as_ref().map(|t| t.prefix_count), Some(150));
        let analysis = analyzer.complete(conn.clone(), &partial, transfer);
        assert_eq!(analysis.period, window);
        for (_, r) in analysis.vector.factors {
            assert!((0.0..=1.0).contains(&r), "{r}");
        }
        // The partial view's series are the whole analysis's.
        let alert = |s: &SeriesSet| {
            format!(
                "{:?}",
                (
                    &s.upstream_loss,
                    &s.downstream_loss,
                    &s.spurious_retx,
                    &s.window_probes,
                    &s.zero_window,
                    &s.outstanding,
                    &s.send_app_limited,
                )
            )
        };
        assert_eq!(alert(&partial.series), alert(&analysis.series));
        assert!(!analysis.series.transmission.is_empty());
        assert!(partial.series.transmission.is_empty(), "not read live");
        // A window starting before the connection clips to its start.
        let wide = Span::new(Micros(-5_000_000), now);
        let partial =
            analyzer.analyze_partial_lossy(conn, &extraction, wide, AnomalyCounts::default());
        assert_eq!(partial.period.start, Micros::ZERO);
    }

    #[test]
    fn period_uses_mct_end() {
        let mut frames = clean_transfer(100);
        // Steady-state keepalive much later must not extend the period.
        let last_t = frames.last().unwrap().timestamp;
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        frames.push(
            FrameBuilder::new(a, b)
                .at(last_t + Micros::from_secs(600))
                .ports(179, 40000)
                .seq(10_000_000)
                .ack_to(1)
                .payload(tdat_bgp::BgpMessage::Keepalive.to_bytes())
                .build(),
        );
        let analyses = crate::StreamAnalyzer::default().analyze_frames(&frames);
        let analysis = &analyses[0];
        assert!(
            analysis.period.duration() < Micros::from_secs(300),
            "period {} must stop at the MCT transfer end",
            analysis.period.duration()
        );
    }

    /// What a batch pass keeps per finished session until it returns,
    /// inline: 912 bytes, of which the series set is 432 — 17 series of
    /// 24 bytes, one `Vec` each, beside the period and two windows.
    /// While every series carried an owned name the set was 840 bytes
    /// and the analysis 1 320.
    #[test]
    fn an_analysis_holds_its_series_without_names() {
        assert_eq!(std::mem::size_of::<SeriesSet>(), 432);
        assert_eq!(std::mem::size_of::<Analysis>(), 912);
    }
}
