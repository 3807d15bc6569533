//! The experiments: one function per table/figure of the paper.
//!
//! Every function renders a plain-text report (tables as aligned rows,
//! figures as data series suitable for plotting); the `experiments`
//! binary writes them under `bench_results/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tdat::{Analysis, AnalyzerConfig, Factor, FactorGroup, StreamAnalyzer};
use tdat_bgp::BgpMessage;
use tdat_packet::TcpFrame;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{
    BgpReceiverConfig, ConnectionSpec, ScriptAction, SenderTimer, Simulation, TcpConfig,
};
use tdat_timeset::{Micros, Span};

use crate::corpus::{generate_transfer, parallel_map, Corpus, Dataset, Scenario, Transfer};

/// Shared state: the corpus and one analysis per transfer.
pub struct ExperimentCtx {
    /// The generated corpus.
    pub corpus: Corpus,
    /// `analyses[i]` analyzes `corpus.transfers[i]`.
    pub analyses: Vec<Analysis>,
    /// Analyzer configuration used throughout.
    pub config: AnalyzerConfig,
}

impl ExperimentCtx {
    /// Generates the corpus and analyzes every transfer (parallel).
    pub fn build(seed: u64, scale: f64, routes: usize) -> ExperimentCtx {
        let corpus = Corpus::generate(seed, scale, routes);
        let config = AnalyzerConfig::builder()
            .build()
            .expect("paper defaults are valid");
        let jobs: Vec<&Transfer> = corpus.transfers.iter().collect();
        let analyses = parallel_map(jobs, |t| {
            let mut all = analyze(&t.frames, config.clone());
            assert_eq!(all.len(), 1, "one connection per transfer");
            all.remove(0)
        });
        ExperimentCtx {
            corpus,
            analyses,
            config,
        }
    }

    fn per_dataset(&self) -> BTreeMap<Dataset, Vec<(&Transfer, &Analysis)>> {
        let mut map: BTreeMap<Dataset, Vec<(&Transfer, &Analysis)>> = BTreeMap::new();
        for (t, a) in self.corpus.transfers.iter().zip(&self.analyses) {
            map.entry(t.dataset).or_default().push((t, a));
        }
        map
    }
}

/// Every connection of `frames`, through the one batch pass.
fn analyze(frames: &[TcpFrame], config: AnalyzerConfig) -> Vec<Analysis> {
    StreamAnalyzer::new(config).analyze_frames(frames)
}

fn secs(m: Micros) -> f64 {
    m.as_secs_f64()
}

fn duration_of(a: &Analysis) -> Micros {
    a.period.duration()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

// ----------------------------------------------------------------------
// Table I — dataset summary
// ----------------------------------------------------------------------

/// Regenerates Table I: dataset characteristics and transfer counts.
pub fn table1(ctx: &ExperimentCtx) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:>5} {:>10} {:>12} {:>7} {:>10}",
        "Trace", "Type", "# Pkts", "Bytes", "# Rtrs", "# Transfers"
    )
    .unwrap();
    for dataset in Dataset::ALL {
        let kind = match dataset {
            Dataset::RouteViews => "eBGP",
            _ => "iBGP",
        };
        writeln!(
            out,
            "{:<16} {:>5} {:>10} {:>12} {:>7} {:>10}",
            dataset.name(),
            kind,
            ctx.corpus.frame_count(dataset),
            ctx.corpus.byte_count(dataset),
            dataset.routers(),
            ctx.corpus.of(dataset).count(),
        )
        .unwrap();
    }
    writeln!(
        out,
        "\n(scaled reproduction; paper counts 10396/436/94 transfers — see DESIGN.md)"
    )
    .unwrap();
    out
}

// ----------------------------------------------------------------------
// Fig. 3 — CDF of table transfer duration
// ----------------------------------------------------------------------

/// Regenerates Fig. 3: the transfer-duration CDF per dataset.
pub fn fig3(ctx: &ExperimentCtx) -> String {
    let mut out = String::from("# duration CDF: dataset percentile duration_s\n");
    for (dataset, entries) in ctx.per_dataset() {
        let mut durations: Vec<f64> = entries.iter().map(|(_, a)| secs(duration_of(a))).collect();
        durations.sort_by(f64::total_cmp);
        for p in [0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95, 1.0] {
            writeln!(
                out,
                "{} {:.2} {:.3}",
                dataset.name(),
                p,
                percentile(&durations, p)
            )
            .unwrap();
        }
    }
    out
}

// ----------------------------------------------------------------------
// Fig. 4 — stretch of table transfers
// ----------------------------------------------------------------------

/// Regenerates Fig. 4: per-router stretch ratio (slowest / fastest
/// transfer of a similar table) CDF per dataset.
pub fn fig4(ctx: &ExperimentCtx) -> String {
    let mut out = String::from("# stretch CDF: dataset percentile ratio\n");
    for (dataset, entries) in ctx.per_dataset() {
        let mut by_router: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (t, a) in &entries {
            by_router
                .entry(t.router)
                .or_default()
                .push(secs(duration_of(a)));
        }
        let mut ratios: Vec<f64> = by_router
            .values()
            .filter(|d| d.len() >= 2)
            .map(|d| {
                let max = d.iter().copied().fold(f64::MIN, f64::max);
                let min = d.iter().copied().fold(f64::MAX, f64::min);
                max / min.max(1e-9)
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            writeln!(
                out,
                "{} {:.2} {:.2}",
                dataset.name(),
                p,
                percentile(&ratios, p)
            )
            .unwrap();
        }
        let over2 = ratios.iter().filter(|&&r| r >= 2.0).count();
        writeln!(
            out,
            "# {}: {}/{} routers with stretch >= 2",
            dataset.name(),
            over2,
            ratios.len()
        )
        .unwrap();
    }
    out
}

// ----------------------------------------------------------------------
// Table II — observed transport problems in sampled slow transfers
// ----------------------------------------------------------------------

/// Regenerates Table II: sample the slow transfers (duration > mean +
/// 3σ per router, else the router's slowest) and count detected
/// problems.
pub fn table2(ctx: &ExperimentCtx) -> String {
    let mut sampled: Vec<&Analysis> = Vec::new();
    for (_, entries) in ctx.per_dataset() {
        let mut by_router: BTreeMap<usize, Vec<(&Transfer, &Analysis)>> = BTreeMap::new();
        for (t, a) in entries {
            by_router.entry(t.router).or_default().push((t, a));
        }
        for (_, list) in by_router {
            let durations: Vec<f64> = list.iter().map(|(_, a)| secs(duration_of(a))).collect();
            let mean = durations.iter().sum::<f64>() / durations.len() as f64;
            let var = durations
                .iter()
                .map(|d| (d - mean) * (d - mean))
                .sum::<f64>()
                / durations.len() as f64;
            let cutoff = mean + 3.0 * var.sqrt();
            let slow: Vec<&Analysis> = list
                .iter()
                .filter(|(_, a)| secs(duration_of(a)) > cutoff)
                .map(|(_, a)| *a)
                .collect();
            if slow.is_empty() {
                if let Some((_, a)) = list
                    .iter()
                    .max_by(|x, y| duration_of(x.1).cmp(&duration_of(y.1)))
                {
                    sampled.push(a);
                }
            } else {
                sampled.extend(slow);
            }
        }
    }
    let timer_gaps = sampled
        .iter()
        .filter(|a| a.infer_timer(8).is_some())
        .count();
    let consecutive = sampled
        .iter()
        .filter(|a| !a.consecutive_losses(&ctx.config).is_empty())
        .count();
    // Peer-group blocking comes from dedicated paired-session runs.
    let incidents = peer_group_incidents(3);
    let blocking = incidents.len();
    let mut out = String::new();
    writeln!(out, "sampled slow transfers: {}", sampled.len()).unwrap();
    writeln!(out, "{:<30} {:>6}", "Observation", "Num.").unwrap();
    writeln!(out, "{:<30} {:>6}", "Gaps in table transfers", timer_gaps).unwrap();
    writeln!(
        out,
        "{:<30} {:>6}",
        "Consecutive retransmission", consecutive
    )
    .unwrap();
    writeln!(
        out,
        "{:<30} {:>6}   (from {} dedicated peer-group runs)",
        "BGP peer-group blocking", blocking, 3
    )
    .unwrap();
    out
}

// ----------------------------------------------------------------------
// Table III — retransmission delay of BGP updates
// ----------------------------------------------------------------------

/// Regenerates Table III: in a transfer with a consecutive-loss
/// episode, the updates arriving during the episode and their delays.
pub fn table3() -> String {
    let transfer = generate_transfer(
        Dataset::IspAQuagga,
        0,
        Scenario::DownstreamBurst { at: 0.3, len: 0.15 },
        8_000,
        20_260_101,
    );
    let analyses = analyze(&transfer.frames, AnalyzerConfig::default());
    let analysis = &analyses[0];
    let episodes = tdat::find_consecutive_losses(&analysis.series, 2);
    let mut out = String::new();
    let Some(episode) = episodes.first() else {
        out.push_str("no retransmission episode found\n");
        return out;
    };
    writeln!(
        out,
        "episode: {} .. {} ({} retransmissions)",
        episode.span.start, episode.span.end, episode.retransmissions
    )
    .unwrap();
    writeln!(
        out,
        "{:<12} {:>7}  {:<20} Path",
        "Timestamp", "Delay", "Prefix"
    )
    .unwrap();
    // Updates whose arrival falls inside the (dilated) episode: their
    // delay is arrival − episode start (they were all queued when the
    // loss began).
    // The table prints AS paths, so this is one of the few places that
    // keeps whole messages.
    let (_, extraction) = tdat_pcap2bgp::extract_all(&transfer.frames).remove(0);
    let window = Span::new(episode.span.start, episode.span.end + Micros::from_secs(1));
    let in_window: Vec<_> = extraction
        .messages
        .iter()
        .filter(|(t, m)| window.contains(*t) && matches!(m, BgpMessage::Update(_)))
        .collect();
    // Sample evenly across the episode so the rising delays are visible
    // (the paper's rows run from 1 s to 13 s).
    let step = (in_window.len() / 12).max(1);
    for (t, msg) in in_window.iter().step_by(step).take(12) {
        let BgpMessage::Update(u) = msg else { continue };
        let Some(prefix) = u.announced.first() else {
            continue;
        };
        let delay = (*t - episode.span.start).as_secs_f64();
        let path = u
            .as_path()
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".to_string());
        writeln!(
            out,
            "{:<12.3} {:>6.1}s  {:<20} {}",
            t.as_secs_f64(),
            delay,
            prefix,
            path
        )
        .unwrap();
    }
    writeln!(
        out,
        "({} updates total arrived during the episode)",
        in_window.len()
    )
    .unwrap();
    out
}

// ----------------------------------------------------------------------
// Figs. 5–8 — example traces
// ----------------------------------------------------------------------

/// Emits a time–sequence series for a transfer: `t_s seq label`,
/// prefixed with a rendered character plot.
fn time_sequence(transfer: &Transfer, max_points: usize) -> String {
    let analyses = analyze(&transfer.frames, AnalyzerConfig::default());
    let analysis = &analyses[0];
    let rendered = tdat::plot::render_analysis_time_sequence(analysis, 100, 20);
    let data: Vec<&tdat_trace::Segment> = analysis
        .trace
        .data_segments()
        .filter(|s| s.payload_len > 0)
        .collect();
    let step = (data.len() / max_points.max(1)).max(1);
    let mut out = rendered;
    out.push_str("# t_s seq label\n");
    let mut label_iter = analysis.labels.iter();
    let mut labels_for_data = Vec::new();
    for seg in analysis.trace.data_segments() {
        let label = label_iter.next();
        if seg.payload_len > 0 {
            labels_for_data.push(label);
        }
    }
    for (i, seg) in data.iter().enumerate() {
        let label = labels_for_data
            .get(i)
            .copied()
            .flatten()
            .map(|l| format!("{l:?}"))
            .unwrap_or_default();
        let is_retx = label.contains("Loss") || label.contains("Retrans");
        if i % step == 0 || is_retx {
            writeln!(
                out,
                "{:.6} {} {}",
                seg.time.as_secs_f64(),
                seg.seq,
                if is_retx { "RETX" } else { "DATA" }
            )
            .unwrap();
        }
    }
    out
}

/// Fig. 5: a transfer with quota-timer gaps.
pub fn fig5() -> String {
    let transfer = generate_transfer(
        Dataset::IspAVendor,
        0,
        Scenario::TimerPaced {
            interval: Micros::from_millis(200),
            quota: 8192,
        },
        6_000,
        5_05,
    );
    time_sequence(&transfer, 300)
}

/// Fig. 6: a transfer with two consecutive-retransmission episodes.
pub fn fig6() -> String {
    let transfer = generate_transfer(
        Dataset::IspAQuagga,
        0,
        Scenario::DownstreamBurst { at: 0.25, len: 0.1 },
        10_000,
        6_06,
    );
    time_sequence(&transfer, 300)
}

/// Fig. 7: downstream (receiver-local) loss classification detail.
pub fn fig7() -> String {
    let transfer = generate_transfer(
        Dataset::IspAQuagga,
        1,
        Scenario::DownstreamBurst { at: 0.3, len: 0.08 },
        8_000,
        7_07,
    );
    classification_report(&transfer)
}

/// Fig. 8: upstream loss classification detail.
pub fn fig8() -> String {
    let transfer = generate_transfer(
        Dataset::RouteViews,
        1,
        Scenario::UpstreamLoss { p: 0.02 },
        8_000,
        8_08,
    );
    classification_report(&transfer)
}

fn classification_report(transfer: &Transfer) -> String {
    let analyses = analyze(&transfer.frames, AnalyzerConfig::default());
    let analysis = &analyses[0];
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for l in &analysis.labels {
        let k = match l {
            tdat_trace::SegLabel::InOrder => "in-order",
            tdat_trace::SegLabel::Reordered => "reordered",
            tdat_trace::SegLabel::UpstreamLoss(_) => "upstream-loss",
            tdat_trace::SegLabel::DownstreamLoss(_) => "downstream-loss",
            tdat_trace::SegLabel::SpuriousRetransmission(_) => "spurious",
            tdat_trace::SegLabel::WindowProbe => "window-probe",
        };
        *counts.entry(k).or_default() += 1;
    }
    let mut out = String::new();
    for (k, v) in counts {
        writeln!(out, "{k:<16} {v}").unwrap();
    }
    out
}

// ----------------------------------------------------------------------
// Fig. 9 — peer-group blocking timeline
// ----------------------------------------------------------------------

/// One dedicated peer-group incident run: a 2-member group whose vendor
/// collector fails; returns the two analyses (quagga first) and the
/// pause detected by the cross-connection detector.
pub fn run_peer_group_incident(seed: u64) -> (Analysis, Analysis, Vec<tdat::PeerGroupBlocking>) {
    use tdat_tcpsim::net::{LinkConfig, Network};
    let stream = tdat_bgp::TableGenerator::new(seed)
        .routes(6_000)
        .generate()
        .to_update_stream();
    let mut net = Network::new();
    let router_addr: std::net::Ipv4Addr = "10.1.0.1".parse().unwrap();
    let quagga_addr: std::net::Ipv4Addr = "10.1.255.1".parse().unwrap();
    let vendor_addr: std::net::Ipv4Addr = "10.1.255.2".parse().unwrap();
    let router = net.add_node("router", vec![router_addr]);
    let sniffer = net.add_node("sniffer", vec![]);
    net.add_tap(sniffer);
    let quagga = net.add_node("quagga", vec![quagga_addr]);
    let vendor = net.add_node("vendor", vec![vendor_addr]);
    let (r2s, s2r) = net.add_duplex(router, sniffer, LinkConfig::default());
    let (s2q, q2s) = net.add_duplex(sniffer, quagga, LinkConfig::default());
    let (s2v, v2s) = net.add_duplex(sniffer, vendor, LinkConfig::default());
    net.add_route(router, quagga_addr, r2s);
    net.add_route(router, vendor_addr, r2s);
    net.add_route(sniffer, quagga_addr, s2q);
    net.add_route(sniffer, vendor_addr, s2v);
    net.add_route(sniffer, router_addr, s2r);
    net.add_route(quagga, router_addr, q2s);
    net.add_route(vendor, router_addr, v2s);

    let mut sim = Simulation::new(net);
    let group = sim.add_group(stream.len());
    let mk = |raddr: std::net::Ipv4Addr, rnode, port| ConnectionSpec {
        sender_node: router,
        receiver_node: rnode,
        sender_addr: (router_addr, port),
        receiver_addr: (raddr, 179),
        sender_tcp: TcpConfig::default(),
        receiver_tcp: TcpConfig::default(),
        sender_app: tdat_tcpsim::BgpSenderConfig {
            timer: Some(SenderTimer {
                interval: Micros::from_millis(200),
                quota: 8192,
            }),
            ..Default::default()
        },
        receiver_app: BgpReceiverConfig::default(),
        stream: stream.clone(),
        open_at: Micros::ZERO,
        group: Some(group),
    };
    sim.add_connection(mk(quagga_addr, quagga, 50_000));
    sim.add_connection(mk(vendor_addr, vendor, 50_001));
    let fail_at = Micros::from_millis(500 + (seed % 5) as i64 * 300);
    sim.add_script(fail_at, ScriptAction::FailNode(vendor));
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();
    let frames = &out.taps[0].1;
    let mut analyses = analyze(frames, AnalyzerConfig::default());
    analyses.sort_by_key(|a| a.receiver.0);
    let vendor_a = analyses.pop().expect("two connections");
    let quagga_a = analyses.pop().expect("two connections");
    let incidents =
        tdat::find_peer_group_blocking(&quagga_a.series, &vendor_a.series, Micros::from_secs(60));
    (quagga_a, vendor_a, incidents)
}

/// Dedicated peer-group incident runs for the detector counts.
pub fn peer_group_incidents(n: u64) -> Vec<tdat::PeerGroupBlocking> {
    let runs = parallel_map((0..n).collect::<Vec<u64>>(), |seed| {
        run_peer_group_incident(90_000 + seed).2
    });
    runs.into_iter().flatten().collect()
}

/// Regenerates Fig. 9: the blocking timeline.
pub fn fig9() -> String {
    let (quagga, vendor, incidents) = run_peer_group_incident(9_009);
    let mut out = String::new();
    writeln!(out, "# quagga idle spans (SendAppLimited):").unwrap();
    for span in quagga
        .series
        .send_app_limited()
        .to_span_set()
        .iter()
        .take(8)
    {
        writeln!(out, "  {span}").unwrap();
    }
    writeln!(out, "# vendor loss spans:").unwrap();
    for span in vendor.series.all_loss().iter().take(8) {
        writeln!(out, "  {span}").unwrap();
    }
    for incident in &incidents {
        writeln!(
            out,
            "blocking incident: pause {} (t1..t2 = {} .. {})",
            incident.pause.duration(),
            incident.pause.start,
            incident.pause.end
        )
        .unwrap();
    }
    if incidents.is_empty() {
        writeln!(out, "no blocking incident detected").unwrap();
    }
    out
}

// ----------------------------------------------------------------------
// Fig. 11 — series visualization; Fig. 13 — ACK shifting
// ----------------------------------------------------------------------

/// Regenerates Fig. 11: the BGPlot stack for a lossy transfer piece.
pub fn fig11() -> String {
    let transfer = generate_transfer(
        Dataset::RouteViews,
        2,
        Scenario::UpstreamLoss { p: 0.02 },
        6_000,
        11_11,
    );
    let analyses = analyze(&transfer.frames, AnalyzerConfig::default());
    analyses[0].plot(100)
}

/// Regenerates Fig. 13: per-flight ACK shifts applied by preprocessing.
pub fn fig13() -> String {
    let transfer = generate_transfer(Dataset::IspAQuagga, 3, Scenario::Clean, 4_000, 13_13);
    let analyses = analyze(&transfer.frames, AnalyzerConfig::default());
    let mut out = String::from("# flight_start_s flight_acks shift_us\n");
    for shift in analyses[0].trace.shifts.iter().take(40) {
        writeln!(
            out,
            "{:.6} {} {}",
            shift.flight.start.as_secs_f64(),
            shift.acks,
            shift.shift.as_micros()
        )
        .unwrap();
    }
    out
}

// ----------------------------------------------------------------------
// Fig. 14 — delay-ratio scatter; Table IV — major factors
// ----------------------------------------------------------------------

/// Regenerates Fig. 14: the `(R_s, R_r)` scatter per dataset.
pub fn fig14(ctx: &ExperimentCtx) -> String {
    let mut out = String::from("# dataset R_s R_r R_n\n");
    for (dataset, entries) in ctx.per_dataset() {
        for (_, a) in entries {
            writeln!(
                out,
                "{} {:.3} {:.3} {:.3}",
                dataset.name(),
                a.vector.sender,
                a.vector.receiver,
                a.vector.network
            )
            .unwrap();
        }
    }
    out
}

/// Regenerates Table IV: the distribution of major delay factors with
/// the per-group factor breakdown.
pub fn table4(ctx: &ExperimentCtx) -> String {
    let threshold = ctx.config.major_threshold;
    let mut out = String::new();
    let per = ctx.per_dataset();
    let col = |d: Dataset| per.get(&d).map(|v| v.len()).unwrap_or(0);
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>6}",
        "", "ISP_A(V)", "ISP_A(Q)", "RV"
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>6}",
        "Table Transfers",
        col(Dataset::IspAVendor),
        col(Dataset::IspAQuagga),
        col(Dataset::RouteViews)
    )
    .unwrap();
    let count = |dataset: Dataset, f: &dyn Fn(&Analysis) -> bool| -> usize {
        per.get(&dataset)
            .map(|v| v.iter().filter(|(_, a)| f(a)).count())
            .unwrap_or(0)
    };
    let row = |label: &str, f: &dyn Fn(&Analysis) -> bool| -> String {
        format!(
            "{:<28} {:>10} {:>10} {:>6}",
            label,
            count(Dataset::IspAVendor, f),
            count(Dataset::IspAQuagga, f),
            count(Dataset::RouteViews, f)
        )
    };
    let major = move |g: FactorGroup| move |a: &Analysis| a.vector.group_ratio(g) > threshold;
    writeln!(
        out,
        "{}",
        row("Sender-side limited", &major(FactorGroup::Sender))
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        row("Receiver-side limited", &major(FactorGroup::Receiver))
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        row("Network limited", &major(FactorGroup::Network))
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        row("Unknown", &|a: &Analysis| a
            .vector
            .major_groups(threshold)
            .is_empty())
    )
    .unwrap();
    // Breakdowns: among transfers where the group is major, which member
    // factor dominates.
    let breakdown = |g: FactorGroup, f: Factor| {
        move |a: &Analysis| {
            a.vector.group_ratio(g) > threshold && a.vector.dominant_factor_in(g) == f
        }
    };
    writeln!(out, "--- Breakdown of Sender-side factor group").unwrap();
    writeln!(
        out,
        "{}",
        row(
            "BGP sender app",
            &breakdown(FactorGroup::Sender, Factor::BgpSenderApp)
        )
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        row(
            "TCP congestion window",
            &breakdown(FactorGroup::Sender, Factor::TcpCongestionWindow)
        )
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        row(
            "Local packet loss (send)",
            &breakdown(FactorGroup::Sender, Factor::SenderLocalLoss)
        )
    )
    .unwrap();
    writeln!(out, "--- Breakdown of Receiver-side factor group").unwrap();
    writeln!(
        out,
        "{}",
        row(
            "BGP receiver app",
            &breakdown(FactorGroup::Receiver, Factor::BgpReceiverApp)
        )
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        row(
            "TCP advertised window",
            &breakdown(FactorGroup::Receiver, Factor::TcpAdvertisedWindow)
        )
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        row(
            "Local packet loss (recv)",
            &breakdown(FactorGroup::Receiver, Factor::ReceiverLocalLoss)
        )
    )
    .unwrap();
    writeln!(out, "--- Breakdown of Network factor group").unwrap();
    writeln!(
        out,
        "{}",
        row(
            "Bandwidth limited",
            &breakdown(FactorGroup::Network, Factor::Bandwidth)
        )
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        row(
            "Network packet loss",
            &breakdown(FactorGroup::Network, Factor::NetworkLoss)
        )
    )
    .unwrap();
    out
}

// ----------------------------------------------------------------------
// Fig. 15 — concurrent transfers vs receiver delay ratios
// ----------------------------------------------------------------------

/// Regenerates Fig. 15: as the number of concurrent transfers into one
/// collector grows, the receiver bottleneck migrates from the TCP
/// advertised window to the BGP receiver process.
pub fn fig15() -> String {
    let mut out = String::from("# n_concurrent avg_bgp_recv_ratio avg_tcp_window_ratio\n");
    for &n in &[1usize, 2, 4, 8, 16, 24] {
        let mut topo = monitoring_topology(n, TopologyOptions::default());
        let mut sim = Simulation::new(topo.take_net());
        for i in 0..n {
            let stream = tdat_bgp::TableGenerator::new(1_500 + i as u64)
                .routes(60_000)
                .generate()
                .to_update_stream();
            let mut spec = transfer_spec(&topo, i, stream);
            // A collector with a fixed total processing capacity, fast
            // enough that a *single* transfer is TCP-window bound (the
            // 65 kB window over this RTT caps throughput below the CPU)
            // while many concurrent transfers become CPU bound — the
            // paper's crossover.
            spec.receiver_app = BgpReceiverConfig {
                processing_rate: 60_000_000.0,
                // Collectors process in coarse work quanta: under load
                // the socket buffer fills between quanta and the window
                // swings through small values — the smooth default
                // chunk would hide the application bottleneck.
                drain_chunk: 32 * 1024,
                ..BgpReceiverConfig::default()
            };
            sim.add_connection(spec);
        }
        sim.run(Micros::from_secs(1800));
        let out_sim = sim.into_output();
        let analyses = analyze(&out_sim.taps[0].1, AnalyzerConfig::default());
        let n_a = analyses.len().max(1) as f64;
        let bgp: f64 = analyses
            .iter()
            .map(|a| a.vector.ratio(Factor::BgpReceiverApp))
            .sum::<f64>()
            / n_a;
        let tcp: f64 = analyses
            .iter()
            .map(|a| a.vector.ratio(Factor::TcpAdvertisedWindow))
            .sum::<f64>()
            / n_a;
        writeln!(out, "{n} {bgp:.3} {tcp:.3}").unwrap();
    }
    out
}

// ----------------------------------------------------------------------
// Fig. 16 — duration CDF by dominant factor
// ----------------------------------------------------------------------

/// Regenerates Fig. 16: transfer-duration quartiles grouped by the
/// dominant delay factor.
pub fn fig16(ctx: &ExperimentCtx) -> String {
    let mut groups: BTreeMap<Factor, Vec<f64>> = BTreeMap::new();
    for a in &ctx.analyses {
        groups
            .entry(a.vector.dominant_factor())
            .or_default()
            .push(secs(duration_of(a)));
    }
    let mut out = String::from("# factor n p25 median p75 max\n");
    for (factor, mut durations) in groups {
        durations.sort_by(f64::total_cmp);
        writeln!(
            out,
            "{factor}: n={} p25={:.2} median={:.2} p75={:.2} max={:.2}",
            durations.len(),
            percentile(&durations, 0.25),
            percentile(&durations, 0.5),
            percentile(&durations, 0.75),
            percentile(&durations, 1.0),
        )
        .unwrap();
    }
    out
}

// ----------------------------------------------------------------------
// Table V — problem identification with average delays
// ----------------------------------------------------------------------

/// Regenerates Table V: per-dataset detector hits and the average delay
/// each problem introduced.
pub fn table5(ctx: &ExperimentCtx) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<28} {:>18} {:>18} {:>18}",
        "", "ISP_A(Vendor)", "ISP_A(Quagga)", "RV"
    )
    .unwrap();
    let per = ctx.per_dataset();
    let mut gap_cells = Vec::new();
    let mut loss_cells = Vec::new();
    for dataset in Dataset::ALL {
        let entries = per.get(&dataset).map(Vec::as_slice).unwrap_or(&[]);
        // Timer gaps.
        let timers: Vec<tdat::InferredTimer> = entries
            .iter()
            .filter_map(|(_, a)| a.infer_timer(8))
            .collect();
        let avg_delay = if timers.is_empty() {
            0.0
        } else {
            timers.iter().map(|t| secs(t.total_delay)).sum::<f64>() / timers.len() as f64
        };
        gap_cells.push(format!("{} / {:.2}s", timers.len(), avg_delay));
        // Consecutive losses.
        let episodes: Vec<Vec<tdat::ConsecutiveLosses>> = entries
            .iter()
            .map(|(_, a)| a.consecutive_losses(&ctx.config))
            .collect();
        let hits = episodes.iter().filter(|e| !e.is_empty()).count();
        let delays: Vec<f64> = episodes
            .iter()
            .flatten()
            .map(|e| secs(e.span.duration()))
            .collect();
        let avg = if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        };
        loss_cells.push(format!("{hits} / {avg:.2}s"));
    }
    writeln!(
        out,
        "{:<28} {:>18} {:>18} {:>18}",
        "Gaps in table transfers", gap_cells[0], gap_cells[1], gap_cells[2]
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>18} {:>18} {:>18}",
        "Consecutive losses", loss_cells[0], loss_cells[1], loss_cells[2]
    )
    .unwrap();
    let incidents = peer_group_incidents(3);
    let avg_block = if incidents.is_empty() {
        0.0
    } else {
        incidents
            .iter()
            .map(|i| secs(i.pause.duration()))
            .sum::<f64>()
            / incidents.len() as f64
    };
    writeln!(
        out,
        "{:<28} {:>18}",
        "Peer-group blocking",
        format!("{} / {:.2}s (dedicated runs)", incidents.len(), avg_block)
    )
    .unwrap();
    out
}

// ----------------------------------------------------------------------
// Fig. 17 — inferring BGP timers from gap distributions
// ----------------------------------------------------------------------

/// Regenerates Fig. 17: gap distribution + inferred timer per dataset's
/// characteristic timer values.
pub fn fig17(ctx: &ExperimentCtx) -> String {
    let mut out = String::new();
    // The inset table: timers inferred across each dataset.
    for (dataset, entries) in ctx.per_dataset() {
        let mut inferred: Vec<i64> = entries
            .iter()
            .filter_map(|(_, a)| a.infer_timer(8))
            .map(|t| t.period.as_millis_f64().round() as i64)
            .collect();
        inferred.sort_unstable();
        inferred.dedup_by(|a, b| (*a - *b).abs() <= (*b / 5).max(20));
        writeln!(out, "{:<16} timers (ms): {:?}", dataset.name(), inferred).unwrap();
    }
    // One example distribution with its knee.
    let transfer = generate_transfer(
        Dataset::IspAVendor,
        5,
        Scenario::TimerPaced {
            interval: Micros::from_millis(200),
            quota: 8192,
        },
        8_000,
        17_17,
    );
    let analyses = analyze(&transfer.frames, AnalyzerConfig::default());
    let analysis = &analyses[0];
    let gaps: Vec<Micros> = analysis.series.send_app_limited().durations().collect();
    out.push_str("\n# example 200 ms transfer gap distribution\n");
    out.push_str(&tdat::plot::render_gap_distribution(&gaps, 8));
    if let Some(timer) = analysis.infer_timer(8) {
        writeln!(
            out,
            "knee/inferred timer: {:.0} ms ({} gaps, {:.2}s total)",
            timer.period.as_millis_f64(),
            timer.gap_count,
            secs(timer.total_delay)
        )
        .unwrap();
    }
    out
}

// ----------------------------------------------------------------------
// Ablations
// ----------------------------------------------------------------------

/// Ablation 1: ACK shifting on/off — factor attribution of a
/// timer-paced (sender-limited) transfer.
pub fn ablation_ack_shift() -> String {
    let transfer = generate_transfer(
        Dataset::IspAQuagga,
        0,
        Scenario::TimerPaced {
            interval: Micros::from_millis(200),
            quota: 8192,
        },
        8_000,
        31_337,
    );
    let mut out = String::from(
        "# timer-paced transfer\n# variant sender_ratio receiver_ratio bgp_sender_ratio\n",
    );
    for (name, disable) in [("shifted", false), ("unshifted", true)] {
        let config = AnalyzerConfig::builder()
            .disable_ack_shift(disable)
            .build()
            .expect("valid ablation config");
        let analyses = analyze(&transfer.frames, config);
        let v = &analyses[0].vector;
        writeln!(
            out,
            "{name} {:.3} {:.3} {:.3}",
            v.sender,
            v.receiver,
            v.ratio(Factor::BgpSenderApp)
        )
        .unwrap();
    }
    // The shift is load-bearing for window attribution on pipelined
    // receiver-side traces: without it the outstanding-vs-window margin
    // is computed against stale ACK positions and the AdvBndOut series
    // vanishes.
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let stream = tdat_bgp::TableGenerator::new(1_500)
        .routes(60_000)
        .generate()
        .to_update_stream();
    let mut spec = transfer_spec(&topo, 0, stream);
    spec.receiver_app = BgpReceiverConfig {
        processing_rate: 60_000_000.0,
        drain_chunk: 32 * 1024,
        ..BgpReceiverConfig::default()
    };
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(1800));
    let frames = sim.into_output().taps.remove(0).1;
    out.push_str("# window-bound transfer\n# variant tcp_window_ratio cwnd_ratio\n");
    for (name, disable) in [("shifted", false), ("unshifted", true)] {
        let config = AnalyzerConfig::builder()
            .disable_ack_shift(disable)
            .build()
            .expect("valid ablation config");
        let analyses = analyze(&frames, config);
        let v = &analyses[0].vector;
        writeln!(
            out,
            "{name} {:.3} {:.3}",
            v.ratio(Factor::TcpAdvertisedWindow),
            v.ratio(Factor::TcpCongestionWindow)
        )
        .unwrap();
    }
    out
}

/// Ablation 2: small/large window threshold sweep (1–6 MSS) on a
/// slow-receiver transfer.
pub fn ablation_window_threshold() -> String {
    let transfer = generate_transfer(
        Dataset::IspAQuagga,
        0,
        Scenario::SlowReceiver { rate: 40_000.0 },
        8_000,
        41_41,
    );
    let mut out = String::from("# threshold_mss bgp_recv_ratio tcp_window_ratio\n");
    for threshold in [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0] {
        let config = AnalyzerConfig::builder()
            .small_window_mss(threshold)
            .build()
            .expect("valid ablation config");
        let analyses = analyze(&transfer.frames, config);
        let v = &analyses[0].vector;
        writeln!(
            out,
            "{threshold} {:.3} {:.3}",
            v.ratio(Factor::BgpReceiverApp),
            v.ratio(Factor::TcpAdvertisedWindow)
        )
        .unwrap();
    }
    out
}

/// Ablation 3: major-factor threshold sweep (0.3–0.5) — the share of
/// transfers per major group must stay qualitatively stable (§IV-A).
pub fn ablation_major_threshold(ctx: &ExperimentCtx) -> String {
    let mut out = String::from("# threshold sender_major receiver_major network_major\n");
    for threshold in [0.3f64, 0.35, 0.4, 0.45, 0.5] {
        let counts: Vec<usize> = FactorGroup::ALL
            .iter()
            .map(|g| {
                ctx.analyses
                    .iter()
                    .filter(|a| a.vector.group_ratio(*g) > threshold)
                    .count()
            })
            .collect();
        writeln!(out, "{threshold} {} {} {}", counts[0], counts[1], counts[2]).unwrap();
    }
    out
}

/// Ablation 4: consecutive-loss threshold sweep (4–16).
pub fn ablation_loss_threshold(ctx: &ExperimentCtx) -> String {
    let mut out = String::from("# threshold transfers_with_episode\n");
    for threshold in [4usize, 6, 8, 12, 16] {
        let config = AnalyzerConfig {
            consecutive_loss_threshold: threshold,
            ..ctx.config.clone()
        };
        let hits = ctx
            .analyses
            .iter()
            .filter(|a| !a.consecutive_losses(&config).is_empty())
            .count();
        writeln!(out, "{threshold} {hits}").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: a tiny corpus flows through every corpus-based experiment
    /// and each produces non-trivial output.
    #[test]
    fn all_corpus_experiments_produce_output() {
        let ctx = ExperimentCtx::build(7, 0.03, 1_000);
        assert!(!ctx.analyses.is_empty());
        for (name, report) in [
            ("table1", table1(&ctx)),
            ("fig3", fig3(&ctx)),
            ("fig4", fig4(&ctx)),
            ("fig14", fig14(&ctx)),
            ("table4", table4(&ctx)),
            ("fig16", fig16(&ctx)),
            ("ablation_major_threshold", ablation_major_threshold(&ctx)),
            ("ablation_loss_threshold", ablation_loss_threshold(&ctx)),
        ] {
            assert!(report.lines().count() >= 3, "{name} too short:\n{report}");
        }
    }

    #[test]
    fn standalone_experiments_produce_output() {
        for (name, report) in [("fig7", fig7()), ("fig13", fig13())] {
            assert!(!report.trim().is_empty(), "{name} empty");
        }
    }
}
