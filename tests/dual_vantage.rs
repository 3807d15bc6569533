//! Dual-vantage consistency: the same transfer captured at a
//! sender-side tap and a receiver-side tap must yield consistent
//! factor attribution once each analyzer is told where its sniffer sat
//! (the paper's claim that the preprocessing step makes the tool
//! vantage-agnostic, §III-B1).

use tdat::{AnalyzerConfig, Factor, SnifferLocation, StreamAnalyzer};
use tdat_bgp::TableGenerator;
use tdat_tcpsim::net::{LinkConfig, Network};
use tdat_tcpsim::{ConnectionSpec, SenderTimer, Simulation};
use tdat_timeset::Micros;

/// Topology with taps at both ends:
/// router → snifferA(tap) → core → snifferB(tap) → collector.
fn dual_tap_run(
    configure: impl FnOnce(&mut ConnectionSpec),
) -> (Vec<tdat_packet::TcpFrame>, Vec<tdat_packet::TcpFrame>) {
    let stream = TableGenerator::new(88)
        .routes(8_000)
        .generate()
        .to_update_stream();
    let mut net = Network::new();
    let router_addr: std::net::Ipv4Addr = "10.9.0.1".parse().unwrap();
    let collector_addr: std::net::Ipv4Addr = "10.9.255.2".parse().unwrap();
    let router = net.add_node("router", vec![router_addr]);
    let sniffer_a = net.add_node("snifferA", vec![]);
    net.add_tap(sniffer_a);
    let core = net.add_node("core", vec![]);
    let sniffer_b = net.add_node("snifferB", vec![]);
    net.add_tap(sniffer_b);
    let collector = net.add_node("collector", vec![collector_addr]);

    let fast = LinkConfig {
        propagation: Micros::from_millis(1),
        ..LinkConfig::default()
    };
    let (l1, r1) = net.add_duplex(router, sniffer_a, fast.clone());
    let (l2, r2) = net.add_duplex(sniffer_a, core, fast.clone());
    let (l3, r3) = net.add_duplex(core, sniffer_b, fast.clone());
    let (l4, r4) = net.add_duplex(sniffer_b, collector, fast);
    net.add_route(router, collector_addr, l1);
    net.add_route(sniffer_a, collector_addr, l2);
    net.add_route(core, collector_addr, l3);
    net.add_route(sniffer_b, collector_addr, l4);
    net.add_route(collector, router_addr, r4);
    net.add_route(sniffer_b, router_addr, r3);
    net.add_route(core, router_addr, r2);
    net.add_route(sniffer_a, router_addr, r1);

    let mut spec = ConnectionSpec {
        sender_node: router,
        receiver_node: collector,
        sender_addr: (router_addr, 179),
        receiver_addr: (collector_addr, 40_000),
        sender_tcp: Default::default(),
        receiver_tcp: Default::default(),
        sender_app: Default::default(),
        receiver_app: Default::default(),
        stream,
        open_at: Micros::ZERO,
        group: None,
    };
    configure(&mut spec);
    let mut sim = Simulation::new(net);
    sim.add_connection(spec);
    sim.run(Micros::from_secs(900));
    let mut out = sim.into_output();
    // Taps come back named; order by name for determinism.
    out.taps.sort_by(|a, b| a.0.cmp(&b.0));
    let b = out.taps.pop().expect("snifferB").1;
    let a = out.taps.pop().expect("snifferA").1;
    (a, b)
}

#[test]
fn both_vantages_agree_on_a_sender_limited_transfer() {
    let (at_sender, at_receiver) = dual_tap_run(|spec| {
        spec.sender_app.timer = Some(SenderTimer {
            interval: Micros::from_millis(200),
            quota: 8192,
        });
    });
    let near_sender = StreamAnalyzer::new(AnalyzerConfig {
        sniffer: SnifferLocation::NearSender,
        ..AnalyzerConfig::default()
    });
    let near_receiver = StreamAnalyzer::default(); // NearReceiver
    let a = &near_sender.analyze_frames(&at_sender)[0];
    let b = &near_receiver.analyze_frames(&at_receiver)[0];
    assert_eq!(
        a.vector.dominant_factor(),
        Factor::BgpSenderApp,
        "{}",
        a.vector
    );
    assert_eq!(
        b.vector.dominant_factor(),
        Factor::BgpSenderApp,
        "{}",
        b.vector
    );
    assert!(
        (a.vector.sender - b.vector.sender).abs() < 0.15,
        "vantages agree on the sender ratio: {} vs {}",
        a.vector.sender,
        b.vector.sender
    );
    // Both infer the same hidden timer.
    let ta = a.infer_timer(8).expect("timer at sender tap");
    let tb = b.infer_timer(8).expect("timer at receiver tap");
    assert!((ta.period.as_millis_f64() - tb.period.as_millis_f64()).abs() < 20.0);
}

#[test]
fn both_vantages_see_the_same_transfer_content() {
    let (at_sender, at_receiver) = dual_tap_run(|_| {});
    let a = tdat_pcap2bgp::extract_all(&at_sender);
    let b = tdat_pcap2bgp::extract_all(&at_receiver);
    assert_eq!(a[0].1.announced_prefixes(), 8_000);
    assert_eq!(a[0].1.announced_prefixes(), b[0].1.announced_prefixes());
}
