//! System-level validation: T-DAT analyzes *only the sniffer's pcap
//! frames* from simulated table transfers whose true bottleneck is
//! known, and its factor attribution must point at the right culprit.

use tdat::{AnalyzerConfig, Factor, FactorGroup, StreamAnalyzer};
use tdat_bgp::TableGenerator;
use tdat_packet::TcpFrame;
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{
    BgpReceiverConfig, ConnectionSpec, ScriptAction, SenderTimer, Simulation, TcpConfig,
};
use tdat_timeset::{Micros, Span};

fn stream(routes: usize, seed: u64) -> Vec<u8> {
    TableGenerator::new(seed)
        .routes(routes)
        .generate()
        .to_update_stream()
}

/// Runs one transfer and returns the sniffer frames.
fn run(spec_mut: impl FnOnce(&mut ConnectionSpec), topo_opts: TopologyOptions) -> Vec<TcpFrame> {
    let mut topo = monitoring_topology(1, topo_opts);
    let mut spec = transfer_spec(&topo, 0, stream(8000, 42));
    spec_mut(&mut spec);
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(900));
    sim.into_output().taps.remove(0).1
}

#[test]
fn quota_timer_transfer_is_sender_app_limited_with_inferable_timer() {
    let frames = run(
        |spec| {
            spec.sender_app.timer = Some(SenderTimer {
                interval: Micros::from_millis(200),
                quota: 8192,
            });
        },
        TopologyOptions::default(),
    );
    let analyses = StreamAnalyzer::default().analyze_frames(&frames);
    let analysis = &analyses[0];
    let v = &analysis.vector;
    assert!(
        v.sender > 0.5,
        "sender group must dominate a timer-paced transfer: {v}"
    );
    assert_eq!(v.dominant_factor(), Factor::BgpSenderApp, "{v}");
    assert_eq!(v.major_groups(0.3), vec![FactorGroup::Sender]);

    // Fig. 17: the 200 ms quota timer is inferable from the gap
    // distribution knee.
    let timer = analysis.infer_timer(10).expect("timer must be inferred");
    let period_ms = timer.period.as_millis_f64();
    assert!(
        (140.0..260.0).contains(&period_ms),
        "inferred {period_ms} ms, expected ~200"
    );
}

#[test]
fn slow_receiver_is_receiver_limited() {
    let frames = run(
        |spec| {
            spec.receiver_app = BgpReceiverConfig {
                processing_rate: 30_000.0, // 30 kB/s collector
                ..BgpReceiverConfig::default()
            };
        },
        TopologyOptions::default(),
    );
    let analyses = StreamAnalyzer::default().analyze_frames(&frames);
    let v = &analyses[0].vector;
    assert!(
        v.receiver > 0.5,
        "receiver group must dominate a slow-collector transfer: {v}"
    );
    assert!(
        v.ratio(Factor::BgpReceiverApp) > v.ratio(Factor::TcpAdvertisedWindow),
        "small/zero windows → the receiving *application* is the culprit: {v}"
    );
    assert!(v.major_groups(0.3).contains(&FactorGroup::Receiver));
}

#[test]
fn small_max_window_is_tcp_window_limited() {
    // RouteViews-style 16 kB receive buffer with a *fast* collector and
    // a long path: the TCP window setting, not the application, is the
    // bottleneck.
    let mut topo_opts = TopologyOptions::default();
    topo_opts.access.propagation = Micros::from_millis(20); // long RTT
    let frames = run(
        |spec| {
            spec.receiver_tcp = TcpConfig {
                recv_buffer: 16_384,
                ..TcpConfig::default()
            };
        },
        topo_opts,
    );
    let analyses = StreamAnalyzer::default().analyze_frames(&frames);
    let v = &analyses[0].vector;
    assert!(
        v.receiver > 0.3,
        "receiver group must matter with a 16 kB window over a 40 ms path: {v}"
    );
    assert!(
        v.ratio(Factor::TcpAdvertisedWindow) > v.ratio(Factor::BgpReceiverApp),
        "large-but-binding window → TCP setting, not the app: {v}"
    );
}

#[test]
fn downstream_burst_yields_receiver_local_loss_and_episodes() {
    let mut topo_opts = TopologyOptions::default();
    topo_opts.last_hop.loss = LossModel::Burst(vec![Span::new(
        Micros::from_millis(10),
        Micros::from_millis(40),
    )]);
    let frames = run(|_| {}, topo_opts);
    let analyses = StreamAnalyzer::default().analyze_frames(&frames);
    let analysis = &analyses[0];
    assert!(
        analysis.vector.ratio(Factor::ReceiverLocalLoss) > 0.0,
        "{}",
        analysis.vector
    );
    let episodes = analysis.consecutive_losses(&AnalyzerConfig {
        consecutive_loss_threshold: 3,
        ..AnalyzerConfig::default()
    });
    assert!(
        !episodes.is_empty(),
        "burst loss must form a consecutive-retransmission episode"
    );
}

#[test]
fn upstream_random_loss_attributed_to_network() {
    let mut topo_opts = TopologyOptions::default();
    topo_opts.access.loss = LossModel::Random { p: 0.03, seed: 5 };
    let frames = run(|_| {}, topo_opts);
    let analyses = StreamAnalyzer::default().analyze_frames(&frames);
    let v = &analyses[0].vector;
    assert!(
        v.ratio(Factor::NetworkLoss) > 0.0,
        "upstream loss = network loss at a receiver-side sniffer: {v}"
    );
    assert_eq!(
        v.ratio(Factor::SenderLocalLoss),
        0.0,
        "near-receiver sniffer cannot see sender-local losses"
    );
}

#[test]
fn zero_window_probe_bug_detected_via_conflicting_series() {
    // A continuously overloaded collector keeps the window flapping
    // between zero and barely open; every reopen while a probe is
    // pending makes the buggy sender discard the probe and leave a
    // sequence hole, so zero-window periods and (apparent upstream)
    // loss recovery interleave — the paper's conflicting-series
    // signature.
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    // The stream must exceed the receive buffer several times over so
    // the window repeatedly closes.
    let mut spec = transfer_spec(&topo, 0, stream(12_000, 43));
    spec.sender_tcp = TcpConfig {
        zero_window_probe_bug: true,
        ..TcpConfig::default()
    };
    spec.receiver_app = BgpReceiverConfig {
        processing_rate: 20_000.0, // 20 kB/s: hopelessly slow
        ..BgpReceiverConfig::default()
    };
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(900));
    let out = sim.into_output();
    assert!(
        out.connections[0].sender_tcp_stats.bug_discards > 0,
        "the bug must have fired in the simulation"
    );
    let frames = &out.taps[0].1;
    let analyses = StreamAnalyzer::default().analyze_frames(frames);
    let analysis = &analyses[0];
    assert!(
        analysis.zero_ack_bug().is_some(),
        "ZeroAdvBndOut ∩ UpstreamLoss must flag the bug"
    );
}

#[test]
fn sender_side_sniffer_attributes_local_losses_to_sender() {
    // Sniffer next to the *sender*: losses between the sniffer and the
    // collector are downstream — which with SnifferLocation::NearSender
    // means network loss, while sniffer-unseen (upstream) losses are
    // sender-local.
    use tdat::SnifferLocation;
    use tdat_tcpsim::scenario::sender_side_topology;
    let mut topo_opts = TopologyOptions::default();
    // Drops between the router and the sniffer: sender-local.
    topo_opts.access.loss = LossModel::Random { p: 0.02, seed: 21 };
    let mut topo = sender_side_topology(topo_opts);
    let spec = transfer_spec(&topo, 0, stream(8_000, 46));
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(900));
    let frames = sim.into_output().taps.remove(0).1;

    let near_sender = StreamAnalyzer::new(AnalyzerConfig {
        sniffer: SnifferLocation::NearSender,
        ..AnalyzerConfig::default()
    });
    let analyses = near_sender.analyze_frames(&frames);
    let v = &analyses[0].vector;
    assert!(
        v.ratio(Factor::SenderLocalLoss) > 0.0,
        "upstream losses = sender-local at a sender-side sniffer: {v}"
    );
    assert_eq!(v.ratio(Factor::ReceiverLocalLoss), 0.0, "{v}");

    // The same capture through a Middle-configured analyzer attributes
    // everything to the network instead.
    let middle = StreamAnalyzer::new(AnalyzerConfig {
        sniffer: SnifferLocation::Middle,
        ..AnalyzerConfig::default()
    });
    let analyses = middle.analyze_frames(&frames);
    let v = &analyses[0].vector;
    assert_eq!(v.ratio(Factor::SenderLocalLoss), 0.0);
    assert_eq!(v.ratio(Factor::ReceiverLocalLoss), 0.0);
    assert!(v.ratio(Factor::NetworkLoss) > 0.0, "{v}");
}

#[test]
fn peer_group_blocking_detected_across_connections() {
    // Rebuild the Fig. 9 scenario (same as the tcpsim test) and run the
    // cross-connection detector on the two analyses.
    use tdat_tcpsim::net::{LinkConfig, Network};
    let table = stream(4000, 44);
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
    let group = sim.add_group(table.len());
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
        receiver_app: Default::default(),
        stream: table.clone(),
        open_at: Micros::ZERO,
        group: Some(group),
    };
    sim.add_connection(mk(quagga_addr, quagga, 50_000));
    sim.add_connection(mk(vendor_addr, vendor, 50_001));
    sim.add_script(Micros::from_secs(1), ScriptAction::FailNode(vendor));
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();
    let frames = &out.taps[0].1;

    let analyses = StreamAnalyzer::default().analyze_frames(frames);
    assert_eq!(analyses.len(), 2);
    let quagga_analysis = analyses
        .iter()
        .find(|a| a.receiver.0 == quagga_addr)
        .expect("quagga connection analyzed");
    let vendor_analysis = analyses
        .iter()
        .find(|a| a.receiver.0 == vendor_addr)
        .expect("vendor connection analyzed");
    let incidents = tdat::find_peer_group_blocking(
        &quagga_analysis.series,
        &vendor_analysis.series,
        Micros::from_secs(60),
    );
    assert!(
        !incidents.is_empty(),
        "the quagga pause must intersect the vendor's retransmission storm"
    );
    assert!(
        incidents[0].pause.duration() >= Micros::from_secs(90),
        "pause {} should approach the 180 s hold timeout",
        incidents[0].pause.duration()
    );
}

#[test]
fn mid_capture_start_still_analyzable() {
    // Capture started after the handshake and the first flights (a
    // common operational reality): the analyzer must still extract the
    // connection, label losses, and find most of the transfer.
    let mut topo_opts = TopologyOptions::default();
    topo_opts.access.loss = LossModel::Random { p: 0.01, seed: 31 };
    let frames = run(|_| {}, topo_opts);
    assert!(frames.len() > 60);
    let truncated = &frames[40..]; // drop the SYNs and early flights
    let analyses = StreamAnalyzer::default().analyze_frames(truncated);
    assert_eq!(analyses.len(), 1);
    let a = &analyses[0];
    // No handshake → no RTT estimate, but the pipeline still works.
    assert!(a.profile.rtt.is_none());
    assert!(a.period.duration() > Micros::ZERO);
    let transfer = a.transfer.as_ref().expect("partial transfer visible");
    assert!(
        transfer.prefix_count > 4_000,
        "most of the 8000-route table still reconstructed: {}",
        transfer.prefix_count
    );
    for (_, r) in a.vector.factors {
        assert!((0.0..=1.0).contains(&r));
    }
}

#[test]
fn peer_group_scan_finds_pairs_automatically() {
    // Reuse the Fig. 9 topology but let the all-pairs scanner discover
    // which session blocked which.
    use tdat_tcpsim::net::{LinkConfig, Network};
    let table = stream(4000, 47);
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
    let group = sim.add_group(table.len());
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
        receiver_app: Default::default(),
        stream: table.clone(),
        open_at: Micros::ZERO,
        group: Some(group),
    };
    let quagga_conn = sim.add_connection(mk(quagga_addr, quagga, 50_000));
    sim.add_connection(mk(vendor_addr, vendor, 50_001));
    sim.add_script(Micros::from_secs(1), ScriptAction::FailNode(vendor));
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();

    let analyses = StreamAnalyzer::default().analyze_frames(&out.taps[0].1);
    let hits = tdat::find_peer_group_blocking_all(&analyses, Micros::from_secs(60));
    assert!(!hits.is_empty(), "scanner must find the blocked pair");
    let (blocked, faulty, incidents) = &hits[0];
    // The blocked one is the quagga session (it survived and paused).
    assert_eq!(
        analyses[*blocked].receiver.0, quagga_addr,
        "blocked session is the healthy collector"
    );
    assert_eq!(analyses[*faulty].receiver.0, vendor_addr);
    assert!(incidents[0].pause.duration() >= Micros::from_secs(90));
    let _ = quagga_conn;
}

#[test]
fn report_summarizes_analysis_faithfully() {
    let frames = run(
        |spec| {
            spec.sender_app.timer = Some(SenderTimer {
                interval: Micros::from_millis(200),
                quota: 8192,
            });
        },
        TopologyOptions::default(),
    );
    let engine = StreamAnalyzer::default();
    let analyses = engine.analyze_frames(&frames);
    let report = tdat::Report::from_analysis(&analyses[0], engine.analyzer().config());
    assert_eq!(report.prefixes, 8_000);
    assert!(report.sender_ratio > 0.5);
    assert_eq!(report.major_groups, vec!["sender".to_string()]);
    let timer = report.inferred_timer_ms.expect("timer in report");
    assert!((140.0..260.0).contains(&timer));
    assert!(!report.zero_ack_bug);
    // The JSON form round-trips through serde-independent encoding and
    // contains the key facts.
    let json = report.to_json();
    assert!(json.contains("\"prefixes\":8000"));
    assert!(json.contains("\"major_groups\":[\"sender\"]"));
}
