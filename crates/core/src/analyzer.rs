//! The analyzer façade: pcap in, delay factors out (Fig. 10).

use std::path::Path;

use tdat_bgp::{find_transfer_end_ref, MctConfig, TableTransfer};
use tdat_packet::{AnomalyCounts, TcpFrame};
use tdat_timeset::Span;
use tdat_trace::{
    extract_connections, label_segments, ConnProfile, LabelConfig, SegLabel, TcpConnection,
};

use crate::config::AnalyzerConfig;
use crate::detect::{
    find_consecutive_losses, find_delayed_ack_interaction, find_zero_ack_bug, infer_timer,
    ConsecutiveLosses, DelayedAckInteraction, InferredTimer, ZeroAckBug,
};
use crate::factors::{delay_vector_with, DelayVector};
use crate::preprocess::{shift_acks, ShiftedTrace};
use crate::quarantine::{QuarantineConfig, Verdict};
use crate::series::{generate_series_with, SeriesSet};

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

/// The T-DAT analyzer: configure once, run over connections.
///
/// # Examples
///
/// ```no_run
/// use tdat::Analyzer;
///
/// let analyzer = Analyzer::default();
/// for analysis in analyzer.analyze_pcap("transfer.pcap")? {
///     println!(
///         "{}:{} -> {}:{}",
///         analysis.sender.0, analysis.sender.1,
///         analysis.receiver.0, analysis.receiver.1
///     );
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

    /// Analyzes every TCP connection in a pcap file.
    ///
    /// # Errors
    ///
    /// Fails on I/O or pcap decode errors.
    pub fn analyze_pcap(&self, path: impl AsRef<Path>) -> crate::Result<Vec<Analysis>> {
        let frames = tdat_packet::read_pcap_file(path)?;
        Ok(self.analyze_frames(&frames))
    }

    /// Analyzes every TCP connection in an in-memory frame trace.
    pub fn analyze_frames(&self, frames: &[TcpFrame]) -> Vec<Analysis> {
        extract_connections(frames)
            .into_iter()
            .map(|conn| self.analyze_connection(&conn, frames))
            .collect()
    }

    /// Analyzes one extracted connection. `frames` must be the slice
    /// the connection was extracted from (for BGP payload access).
    ///
    /// The analysis period starts at the TCP connection start (§II-A:
    /// the table transfer begins right after establishment) and ends at
    /// the MCT-estimated transfer end when BGP updates are decodable,
    /// else at the last captured frame.
    pub fn analyze_connection(&self, conn: &TcpConnection, frames: &[TcpFrame]) -> Analysis {
        let extraction = tdat_pcap2bgp::extract_from_frames(conn, frames);
        self.analyze_extracted_lossy(conn.clone(), &extraction, AnomalyCounts::default())
    }

    /// Analyzes a connection whose BGP messages are already extracted —
    /// the streaming engine's entry point, which owns both pieces and
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
        // Identify the transfer end via MCT over the extracted updates
        // (borrowed: MCT scans them without cloning the table).
        let transfer =
            find_transfer_end_ref(conn.profile.start, extraction.updates_iter(), &self.mct);
        let period_end = transfer
            .as_ref()
            .map(|t| t.span.end)
            .unwrap_or(conn.profile.end)
            .max(conn.profile.start);
        let period = Span::new(conn.profile.start, period_end);
        let verdict = self.quarantine.assess(&anomalies, extraction);
        self.build_analysis(conn, period, transfer, anomalies, verdict)
    }

    /// Analyzes a point-in-time snapshot of a *still-open* connection
    /// over a trailing `window` — the live-monitoring entry point.
    ///
    /// The analysis period is `window` clipped to start no earlier than
    /// the connection itself; unlike
    /// [`analyze_extracted_lossy`](Self::analyze_extracted_lossy) it is
    /// *not* clipped to the MCT transfer end, because a live view must
    /// keep counting silence up to "now" (`window.end`) — that is
    /// exactly how a stalled transfer shows up. The MCT transfer
    /// estimate over the messages decoded so far is still computed and
    /// reported. `anomalies` are as for `analyze_extracted_lossy`.
    pub fn analyze_partial_lossy(
        &self,
        conn: TcpConnection,
        extraction: &tdat_pcap2bgp::Extraction,
        window: Span,
        anomalies: AnomalyCounts,
    ) -> Analysis {
        let transfer =
            find_transfer_end_ref(conn.profile.start, extraction.updates_iter(), &self.mct);
        let start = window.start.max(conn.profile.start);
        let period = Span::new(start, window.end.max(start));
        let verdict = self.quarantine.assess(&anomalies, extraction);
        self.build_analysis(conn, period, transfer, anomalies, verdict)
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
        let shifted = if self.config.disable_ack_shift {
            None
        } else {
            Some(shift_acks(&conn))
        };
        let TcpConnection {
            sender,
            receiver,
            segments,
            profile,
        } = conn;
        // With shifting disabled the raw segments are the trace; they
        // are moved, not cloned.
        let trace = shifted.unwrap_or(ShiftedTrace {
            segments,
            shifts: Vec::new(),
        });
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_bgp::TableGenerator;
    use tdat_packet::FrameBuilder;
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
        let analyses = Analyzer::default().analyze_frames(&frames);
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
        let conn = tdat_trace::extract_connections(&frames).remove(0);
        let extraction = tdat_pcap2bgp::extract_from_frames(&conn, &frames);
        let last = frames.last().unwrap().timestamp;
        // A trailing window covering the second half of the capture,
        // reaching past the last frame (live "now").
        let now = last + Micros::from_millis(10);
        let window = Span::new(last / 2, now);
        let analysis = Analyzer::default().analyze_partial_lossy(
            conn.clone(),
            &extraction,
            window,
            AnomalyCounts::default(),
        );
        assert_eq!(analysis.period, window, "window within the connection");
        assert!(analysis.transfer.is_some(), "MCT still estimated");
        for (_, r) in analysis.vector.factors {
            assert!((0.0..=1.0).contains(&r), "{r}");
        }
        // A window starting before the connection clips to its start.
        let wide = Span::new(Micros(-5_000_000), now);
        let analysis = Analyzer::default().analyze_partial_lossy(
            conn,
            &extraction,
            wide,
            AnomalyCounts::default(),
        );
        assert_eq!(analysis.period.start, Micros::ZERO);
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
        let analyses = Analyzer::default().analyze_frames(&frames);
        let analysis = &analyses[0];
        assert!(
            analysis.period.duration() < Micros::from_secs(300),
            "period {} must stop at the MCT transfer end",
            analysis.period.duration()
        );
    }
}
