//! Fig. 9 end to end: one router announces its table to two collectors
//! in the same BGP peer group; the vendor collector dies mid-transfer,
//! and the peer-group replication queue drags the healthy Quagga
//! session down with it until the hold timer removes the dead peer.
//! T-DAT then detects the blocking purely from the two pcap captures.
//!
//! ```text
//! cargo run --example peer_group_blocking
//! ```

use tdat::StreamAnalyzer;
use tdat_bgp::TableGenerator;
use tdat_tcpsim::net::{LinkConfig, Network};
use tdat_tcpsim::{
    BgpReceiverConfig, ConnectionSpec, ScriptAction, SenderTimer, SessionEvent, Simulation,
    TcpConfig,
};
use tdat_timeset::Micros;

fn main() {
    // Topology: router → sniffer → {quagga, vendor} collectors.
    let stream = TableGenerator::new(99)
        .routes(8_000)
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
    let spec = |raddr: std::net::Ipv4Addr, rnode, port| ConnectionSpec {
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
    sim.add_connection(spec(quagga_addr, quagga, 50_000));
    sim.add_connection(spec(vendor_addr, vendor, 50_001));
    // t1: the vendor collector fails.
    sim.add_script(Micros::from_secs(1), ScriptAction::FailNode(vendor));
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();

    println!("== simulation ground truth ==");
    for (i, conn) in out.connections.iter().enumerate() {
        println!("connection {i} ({}):", conn.receiver_addr.0);
        for (t, ev) in &conn.events {
            println!("  {t}  {ev:?}");
        }
    }
    for span in &out.group_blocking[group] {
        println!("group blocked: {span} ({})", span.duration());
    }
    let hold_expired = out.connections[1]
        .events
        .iter()
        .find(|(_, e)| matches!(e, SessionEvent::HoldExpired(_)));
    if let Some((t2, _)) = hold_expired {
        println!("t2 (vendor removed from group): {t2}");
    }

    println!("\n== what T-DAT sees from the pcap alone ==");
    let analyses = StreamAnalyzer::default().analyze_frames(&out.taps[0].1);
    let quagga_a = analyses
        .iter()
        .find(|a| a.receiver.0 == quagga_addr)
        .expect("quagga connection");
    let vendor_a = analyses
        .iter()
        .find(|a| a.receiver.0 == vendor_addr)
        .expect("vendor connection");
    let incidents =
        tdat::find_peer_group_blocking(&quagga_a.series, &vendor_a.series, Micros::from_secs(60));
    for incident in &incidents {
        println!(
            "peer-group blocking detected: the healthy session paused {} ({} .. {}) while the \
             other session was failing",
            incident.pause.duration(),
            incident.pause.start,
            incident.pause.end
        );
    }
    if incidents.is_empty() {
        println!("no blocking detected (unexpected!)");
    }
}
