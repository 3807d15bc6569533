//! Runs one oracle scenario end to end: build the simulation from the
//! scenario parameters, run it, feed the sniffer frames through the
//! full passive pipeline, and score inference against the simulator's
//! ground truth.

use tdat::{Analysis, StreamAnalyzer};
use tdat_bgp::TableGenerator;
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{
    build_scenario, monitoring_topology, DropLocation, MonitoringTopology, ScenarioOptions,
    TopologyOptions,
};
use tdat_tcpsim::{ConnReport, Simulation};
use tdat_timeset::{Micros, Span, SpanSet};

use crate::matrix::{Fault, LossSpec, OracleScenario};
use crate::score::{
    loss_matrix, span_score, truth_set, LabeledSeg, LossMatrix, SpanScore, TimerScore, TruthDrop,
};

/// Scored outcome of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (from the matrix).
    pub name: String,
    /// Strict clean-scenario criteria apply.
    pub clean: bool,
    /// Sender-application idle span accuracy.
    pub app_idle: SpanScore,
    /// Congestion-window-bound span accuracy.
    pub cwnd: SpanScore,
    /// Advertised-window-bound span accuracy (zero-window included).
    pub rwnd: SpanScore,
    /// Zero-window span accuracy.
    pub zero_window: SpanScore,
    /// Loss-location confusion matrix.
    pub loss: LossMatrix,
    /// Timer-period accuracy, for timer-paced scenarios.
    pub timer: Option<TimerScore>,
    /// ZeroAckBug detection outcome, for zwbug scenarios.
    pub zwbug_detected: Option<bool>,
    /// Peer-group-blocking detection outcome, for peergroup scenarios.
    pub peergroup_detected: Option<bool>,
    /// Analysis-period duration in seconds (context for the reader).
    pub period_secs: f64,
}

/// Minimum truth-span duration the analyzer is held accountable for.
/// The analyzer's own idle threshold is 5 ms (`series`' `MIN_IDLE_GAP`);
/// sub-RTT window stalls are likewise below passive resolution.
fn truth_floor(rtt: Micros) -> Micros {
    Micros(5_000).max(rtt)
}

fn edge_tolerance(rtt: Micros) -> Micros {
    // Sender-side truth events surface at the sniffer up to one RTT
    // later (data one-way + ACK-shift residue); allow another RTT of
    // slack for coalescing across sub-RTT gaps.
    Micros(4_000).max(Micros(2 * rtt.as_micros()))
}

/// Runs and scores one scenario from the matrix.
pub fn run_scenario(sc: &OracleScenario) -> ScenarioReport {
    match sc.fault {
        Fault::PeerGroup => run_peergroup(sc),
        _ => run_monitored(sc),
    }
}

fn stream_for(sc: &OracleScenario) -> Vec<u8> {
    TableGenerator::new(sc.seed)
        .routes(sc.routes)
        .generate()
        .to_update_stream()
}

fn topology_options(sc: &OracleScenario, stream_len: usize) -> TopologyOptions {
    let mut opts = TopologyOptions::default();
    opts.access.bandwidth_bps = sc.access_bw_bps;
    opts.access.propagation = Micros::from_secs_f64(sc.rtt_ms / 2.0 / 1e3);
    opts.access.queue_packets = sc.queue_packets;
    // Expected transfer duration — the slower of link serialization
    // and advertised-window pacing (one window per RTT) — used to aim
    // burst outages mid-transfer. Aiming by serialization alone puts
    // the outage *after* a window-bound transfer already finished,
    // silently injecting no loss at all.
    let serialization = stream_len as f64 * 8.0 / sc.access_bw_bps;
    let window_paced = stream_len as f64 * (sc.rtt_ms / 1e3) / f64::from(sc.recv_buffer);
    // ~5 RTTs of slow-start ramp before the steady-state rate applies;
    // a burst aimed earlier catches only a handful of frames in flight
    // and the sender sits out the outage in RTO.
    let slow_start = 5.0 * sc.rtt_ms / 1e3;
    let expected = Micros::from_secs_f64(serialization.max(window_paced) + slow_start);
    let burst_at = Micros((expected.as_micros() * 2 / 5).max(5_000));
    let burst = Span::new(burst_at, burst_at + Micros::from_millis(40));
    match sc.loss {
        LossSpec::None | LossSpec::QueueSqueeze => {}
        LossSpec::UpRandom(p) => {
            opts.access.loss = LossModel::Random { p, seed: sc.seed };
        }
        LossSpec::UpBurst => {
            opts.access.loss = LossModel::Burst(vec![burst]);
        }
        LossSpec::DownBurst => {
            opts.last_hop.loss = LossModel::Burst(vec![burst]);
        }
    }
    opts
}

/// Ground-truth drops relevant to the loss matrix: payload frames lost
/// on the data path, classified by tap side.
fn truth_drops(topo: &MonitoringTopology, net: &tdat_tcpsim::net::Network) -> Vec<TruthDrop> {
    topo.located_drops(net)
        .into_iter()
        .filter(|d| d.had_payload)
        .filter_map(|d| {
            let upstream = match d.location {
                DropLocation::Upstream => true,
                DropLocation::Downstream => false,
                DropLocation::AckUnseen | DropLocation::AckSeen => return None,
            };
            Some(TruthDrop {
                time: d.time,
                seq: d.seq,
                upstream,
            })
        })
        .collect()
}

fn labeled_segments(analysis: &Analysis) -> Vec<LabeledSeg> {
    analysis
        .trace
        .data_segments()
        .zip(analysis.labels.iter())
        .map(|(seg, label)| LabeledSeg {
            time: seg.time,
            seq: seg.seq,
            seq_end: seg.seq_end,
            label: *label,
        })
        .collect()
}

/// Scores one analyzed connection against its simulator report.
pub(crate) fn score_connection(
    sc: &OracleScenario,
    analysis: &Analysis,
    report: &ConnReport,
    drops: &[TruthDrop],
) -> ScenarioReport {
    let period = analysis.period;
    let rtt = analysis.profile.rtt.unwrap_or(Micros::from_millis(2));
    let tol = edge_tolerance(rtt);
    let floor = truth_floor(rtt);
    let truth = &report.sender_tcp_stats;

    let app_truth = truth_set(&truth.app_limited_spans, floor);
    let app_inferred = analysis.series.send_app_limited().to_span_set();
    let app_idle = span_score(&app_truth, &app_inferred, period, tol);

    let cwnd_truth = truth_set(&truth.cwnd_limited_spans, floor);
    let cwnd_inferred = analysis.series.cwd_bnd_out().to_span_set();
    let cwnd = span_score(&cwnd_truth, &cwnd_inferred, period, tol);

    // The simulator charges zero-window time to the Rwnd limit too, so
    // the inferred counterpart is AdvBndOut ∪ ZeroWindow.
    let rwnd_truth = truth_set(&truth.rwnd_limited_spans, floor)
        .union(&truth_set(&truth.zero_window_spans, floor));
    let rwnd_inferred = analysis
        .series
        .adv_bnd_out()
        .to_span_set()
        .union(&analysis.series.zero_window().to_span_set());
    let rwnd = span_score(&rwnd_truth, &rwnd_inferred, period, tol);

    let zw_truth = truth_set(&truth.zero_window_spans, floor);
    let zw_inferred = analysis.series.zero_window().to_span_set();
    let zero_window = span_score(&zw_truth, &zw_inferred, period, tol);

    let loss = loss_matrix(drops, &labeled_segments(analysis));

    let timer = sc.timer.map(|t| {
        let inferred = analysis.infer_timer(8).map(|it| it.period);
        TimerScore::new(t.interval, inferred)
    });

    let zwbug_detected = (sc.fault == Fault::ZwBug).then(|| analysis.zero_ack_bug().is_some());

    ScenarioReport {
        name: sc.name.clone(),
        clean: sc.is_clean(),
        app_idle,
        cwnd,
        rwnd,
        zero_window,
        loss,
        timer,
        zwbug_detected,
        peergroup_detected: None,
        period_secs: period.duration().as_secs_f64(),
    }
}

/// The raw material of a monitored-scenario run: the sniffer frames
/// and the simulator's ground truth. Shared by the plain sweep and the
/// chaos axis (which damages the frames before analysis).
pub(crate) struct MonitoredRun {
    /// The sniffer's clean capture.
    pub frames: Vec<tdat_packet::TcpFrame>,
    /// Ground-truth report of the monitored connection.
    pub report: ConnReport,
    /// Ground-truth payload drops by tap side.
    pub drops: Vec<TruthDrop>,
}

/// Builds and runs the simulation for a monitored (single-connection)
/// scenario, returning frames plus ground truth.
pub(crate) fn simulate_monitored(sc: &OracleScenario) -> MonitoredRun {
    let stream = stream_for(sc);
    let mut topo = monitoring_topology(1, topology_options(sc, stream.len()));
    let mut spec = tdat_tcpsim::scenario::transfer_spec(&topo, 0, stream);
    spec.sender_tcp.flavor = sc.flavor;
    spec.sender_tcp.window_scale = sc.window_scale;
    spec.receiver_tcp.window_scale = sc.window_scale;
    spec.receiver_tcp.recv_buffer = sc.recv_buffer;
    spec.sender_app.timer = sc.timer;
    if let Some(rate) = sc.processing_rate {
        spec.receiver_app.processing_rate = rate;
    }
    if sc.fault == Fault::ZwBug {
        spec.sender_tcp.zero_window_probe_bug = true;
    }

    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(1800));
    let drops = truth_drops(&topo, sim.network());
    let mut out = sim.into_output();
    MonitoredRun {
        frames: out.taps.remove(0).1,
        report: out.connections.remove(0),
        drops,
    }
}

/// Builds and runs the simulation for `sc` and returns the sniffer's
/// capture — the tap frames a passive monitor would see. This is the
/// corpus generator behind the report-store round-trip tests: every
/// scenario in [`crate::scenario_matrix`] yields a deterministic
/// capture that can be analyzed, ingested, and queried back.
pub fn scenario_capture(sc: &OracleScenario) -> Vec<tdat_packet::TcpFrame> {
    match sc.fault {
        Fault::PeerGroup => {
            let built = build_scenario(
                "peergroup",
                &ScenarioOptions {
                    routes: sc.routes,
                    seed: sc.seed,
                    rtt_ms: sc.rtt_ms,
                },
            )
            .expect("peergroup scenario builds");
            let mut sim = built.sim;
            sim.run(built.horizon);
            let mut out = sim.into_output();
            out.taps.remove(0).1
        }
        _ => simulate_monitored(sc).frames,
    }
}

/// Every connection of a capture, through the one batch pass.
fn analyze(frames: &[tdat_packet::TcpFrame]) -> Vec<Analysis> {
    StreamAnalyzer::default().analyze_frames(frames)
}

fn run_monitored(sc: &OracleScenario) -> ScenarioReport {
    let MonitoredRun {
        frames,
        report,
        drops,
    } = simulate_monitored(sc);
    let report = &report;

    let analyses = analyze(&frames);
    assert_eq!(
        analyses.len(),
        1,
        "{}: expected one analyzed connection, got {}",
        sc.name,
        analyses.len()
    );
    score_connection(sc, &analyses[0], report, &drops)
}

fn run_peergroup(sc: &OracleScenario) -> ScenarioReport {
    let built = build_scenario(
        "peergroup",
        &ScenarioOptions {
            routes: sc.routes,
            seed: sc.seed,
            rtt_ms: sc.rtt_ms,
        },
    )
    .expect("peergroup scenario builds");
    let mut sim = built.sim;
    sim.run(built.horizon);
    let mut out = sim.into_output();
    let frames = out.taps.remove(0).1;

    let analyses = analyze(&frames);

    // Truth: the surviving (quagga) session was blocked by its failed
    // peer-group sibling for these spans.
    let truth_blocking: SpanSet = SpanSet::from_spans(
        out.group_blocking
            .iter()
            .flatten()
            .copied()
            .filter(|s| s.duration() > Micros::from_millis(100)),
    );
    let detections = tdat::find_peer_group_blocking_all(&analyses, Micros::from_secs(2));
    let peergroup_detected =
        Some(!truth_blocking.is_empty() && !detections.iter().all(|(_, _, b)| b.is_empty()));

    // Differential span scoring still applies to the surviving session:
    // match its analysis by receiver endpoint and score the sender-app
    // idle factor (the blocking shows up there as one giant idle span).
    let report = &out.connections[0];
    let analysis = analyses
        .iter()
        .find(|a| a.receiver.0 == report.receiver_addr.0 && a.receiver.1 == report.receiver_addr.1)
        .expect("surviving peer-group session analyzed");
    let mut scored = score_connection(sc, analysis, report, &[]);
    scored.peergroup_detected = peergroup_detected;
    scored
}
