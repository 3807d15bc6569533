//! End-to-end scenario tests: each reproduces one of the paper's
//! observed transport phenomena and checks the sniffer capture and
//! ground truth agree.

use tdat_bgp::{BgpMessage, TableGenerator};
use tdat_packet::{PcapReader, PcapWriter, TcpFlags};
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{
    BgpReceiverConfig, MessageArchive, ScriptAction, SenderTimer, SessionEvent, Simulation,
    TcpConfig,
};
use tdat_timeset::{Micros, Span};

fn stream_of(routes: usize, seed: u64) -> Vec<u8> {
    TableGenerator::new(seed)
        .routes(routes)
        .generate()
        .to_update_stream()
}

/// Total announced prefixes in a receiver archive.
fn announced(archive: &MessageArchive) -> usize {
    archive
        .iter()
        .filter_map(|(_, m)| match m {
            BgpMessage::Update(u) => Some(u.announced.len()),
            _ => None,
        })
        .sum()
}

#[test]
fn clean_transfer_end_to_end() {
    let stream = stream_of(2000, 1);
    let stream_len = stream.len();
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(transfer_spec(&topo, 0, stream));
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();

    let conn = &out.connections[0];
    assert!(conn.established_at.is_some());
    assert_eq!(announced(&conn.archive), 2000, "all routes archived");
    assert!(conn.sender_app_stats.finished_writing);
    assert_eq!(conn.stream_len, stream_len);
    assert_eq!(conn.sender_tcp_stats.retransmissions, 0, "clean path");

    // Sniffer saw SYN, data, and reverse ACKs.
    let frames = &out.taps[0].1;
    assert!(frames.iter().any(|f| f.tcp.flags.contains(TcpFlags::SYN)));
    let data_bytes: usize = frames
        .iter()
        .filter(|f| f.dst().0 == topo.collector_addr)
        .map(|f| f.payload_len())
        .sum();
    assert!(data_bytes >= stream_len, "{data_bytes} < {stream_len}");
    assert!(frames
        .iter()
        .any(|f| f.src().0 == topo.collector_addr && f.is_pure_ack()));

    // A transfer of ~60 KB over a 1 Gbps / ~2 ms path finishes fast.
    let last = frames.last().unwrap().timestamp;
    assert!(last < Micros::from_secs(10), "finished at {last}");
}

#[test]
fn capture_survives_pcap_round_trip() {
    let stream = stream_of(500, 2);
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(transfer_spec(&topo, 0, stream));
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();
    let frames = &out.taps[0].1;

    let mut buf = Vec::new();
    {
        let mut w = PcapWriter::new(&mut buf).unwrap();
        for f in frames.iter() {
            w.write_frame(f).unwrap();
        }
    }
    let reloaded = PcapReader::new(&buf[..]).unwrap().read_all().unwrap();
    assert_eq!(reloaded.len(), frames.len());
    // Relative timing is preserved (reader rebases to the first frame).
    let t0 = frames[0].timestamp;
    for (a, b) in frames.iter().zip(&reloaded) {
        assert_eq!(a.timestamp - t0, b.timestamp);
        assert_eq!(a.payload, b.payload);
    }
}

#[test]
fn quota_timer_creates_visible_gaps() {
    let stream = stream_of(8000, 3);
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut spec = transfer_spec(&topo, 0, stream);
    spec.sender_app.timer = Some(SenderTimer {
        interval: Micros::from_millis(200),
        quota: 8192,
    });
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();

    // Data packet inter-arrival gaps at the sniffer cluster near 200 ms.
    let times: Vec<Micros> = out.taps[0]
        .1
        .iter()
        .filter(|f| f.payload_len() > 0 && f.dst().0 == topo.collector_addr)
        .map(|f| f.timestamp)
        .collect();
    let gaps: Vec<i64> = times
        .windows(2)
        .map(|w| (w[1] - w[0]).as_micros())
        .filter(|&g| g > 50_000)
        .collect();
    assert!(
        gaps.len() >= 10,
        "expected many timer gaps, saw {}",
        gaps.len()
    );
    let near_timer = gaps
        .iter()
        .filter(|&&g| (120_000..280_000).contains(&g))
        .count();
    assert!(
        near_timer as f64 >= gaps.len() as f64 * 0.8,
        "{near_timer}/{} gaps near 200 ms",
        gaps.len()
    );
    // And the transfer is dominated by sender-app idle time.
    let total: Micros = out.connections[0]
        .sender_app_stats
        .withheld_spans
        .iter()
        .map(|s| s.duration())
        .sum();
    assert!(total > Micros::from_secs(1), "withheld {total}");
}

#[test]
fn downstream_burst_loss_causes_consecutive_retransmissions() {
    let stream = stream_of(20000, 4);
    let mut topo_opts = TopologyOptions::default();
    // Losses on the final hop 0.2s–0.5s into the run: receiver-local.
    topo_opts.last_hop.loss = LossModel::Burst(vec![Span::new(
        Micros::from_millis(10),
        Micros::from_millis(30),
    )]);
    let mut topo = monitoring_topology(1, topo_opts);
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(transfer_spec(&topo, 0, stream));
    sim.run(Micros::from_secs(600));

    let last_hop_drops = sim.network().link(topo.last_hop_link).drops().len();
    assert!(last_hop_drops > 0, "burst window must drop frames");
    let out = sim.into_output();
    let conn = &out.connections[0];
    assert!(conn.sender_tcp_stats.retransmissions > 0);
    assert_eq!(announced(&conn.archive), 20000, "reliable despite loss");

    // The sniffer saw both the original and the retransmission
    // (downstream loss signature: same seq twice).
    let frames = &out.taps[0].1;
    let mut seen = std::collections::HashSet::new();
    let mut dup_seqs = 0;
    for f in frames.iter().filter(|f| f.payload_len() > 0) {
        if !seen.insert(f.tcp.seq) {
            dup_seqs += 1;
        }
    }
    assert!(dup_seqs > 0, "retransmissions must be visible at the tap");
}

#[test]
fn upstream_loss_is_invisible_at_tap_but_recovered() {
    let stream = stream_of(3000, 5);
    let mut topo_opts = TopologyOptions::default();
    topo_opts.access =
        LinkConfigExt::with_loss(topo_opts.access, LossModel::Random { p: 0.08, seed: 42 });
    let mut topo = monitoring_topology(1, topo_opts);
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(transfer_spec(&topo, 0, stream));
    sim.run(Micros::from_secs(600));

    let access_drops = sim.network().link(topo.access_links[0]).drops().len();
    assert!(access_drops > 0);
    let out = sim.into_output();
    assert_eq!(announced(&out.connections[0].archive), 3000);
    assert!(out.connections[0].sender_tcp_stats.retransmissions as usize >= access_drops);
}

/// Tiny helper because `LinkConfig` is a plain struct.
struct LinkConfigExt;
impl LinkConfigExt {
    fn with_loss(
        mut config: tdat_tcpsim::net::LinkConfig,
        loss: LossModel,
    ) -> tdat_tcpsim::net::LinkConfig {
        config.loss = loss;
        config
    }
}

#[test]
fn slow_receiver_closes_window() {
    let stream = stream_of(4000, 6);
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut spec = transfer_spec(&topo, 0, stream);
    // 20 kB/s collector: the 65 kB receive buffer fills immediately.
    spec.receiver_app = BgpReceiverConfig {
        processing_rate: 20_000.0,
        ..BgpReceiverConfig::default()
    };
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();
    let conn = &out.connections[0];
    assert_eq!(announced(&conn.archive), 4000);
    // The sender must have observed zero-window periods.
    assert!(
        !conn.sender_tcp_stats.zero_window_spans.is_empty(),
        "flow control must have engaged"
    );
    // ACKs with window 0 are visible at the sniffer.
    let zero_window_acks = out.taps[0]
        .1
        .iter()
        .filter(|f| f.is_pure_ack() && f.tcp.window == 0)
        .count();
    assert!(zero_window_acks > 0);
}

#[test]
fn peer_group_blocking_on_collector_failure() {
    // Two collectors? The paper's setup peers one router with two
    // collector boxes in the same group. Model: two connections from the
    // same router node to two different receiver hosts; the vendor
    // collector fails at t1 and its hold timer removes it ~180 s later,
    // unblocking the Quagga connection (Fig. 9).
    let stream = stream_of(4000, 7);
    let stream_len = stream.len();

    // Build a custom two-collector topology.
    use tdat_tcpsim::net::{LinkConfig, Network};
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
    let group = sim.add_group(stream_len);
    let mk_spec = |raddr: std::net::Ipv4Addr, rnode, port| tdat_tcpsim::ConnectionSpec {
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
        stream: stream.clone(),
        open_at: Micros::ZERO,
        group: Some(group),
    };
    let quagga_conn = sim.add_connection(mk_spec(quagga_addr, quagga, 50_000));
    let _vendor_conn = sim.add_connection(mk_spec(vendor_addr, vendor, 50_001));
    // Vendor collector dies 1 s in.
    sim.add_script(Micros::from_secs(1), ScriptAction::FailNode(vendor));
    sim.run(Micros::from_secs(600));
    let out = sim.into_output();

    // The vendor session eventually expired its hold timer.
    let vendor_report = &out.connections[1];
    assert!(
        vendor_report
            .events
            .iter()
            .any(|(_, e)| matches!(e, SessionEvent::HoldExpired(_))),
        "vendor session must time out: {:?}",
        vendor_report.events
    );
    let closed_at = vendor_report.closed_at.unwrap();
    assert!(
        closed_at >= Micros::from_secs(150),
        "hold expiry ~180 s, got {closed_at}"
    );

    // The Quagga transfer was blocked during the failure and completed
    // only after the vendor was removed from the group.
    let quagga_report = &out.connections[quagga_conn];
    assert_eq!(announced(&quagga_report.archive), 4000);
    let finished = quagga_report.sender_app_stats.finished_at.unwrap();
    assert!(
        finished > closed_at,
        "transfer finished {finished}, vendor removed {closed_at}"
    );
    // Ground truth group blocking span covers most of the failure.
    let blocked: Micros = out.group_blocking[group].iter().map(|s| s.duration()).sum();
    assert!(
        blocked > Micros::from_secs(100),
        "group blocked for {blocked}"
    );
    // During the pause, the Quagga connection carried keepalives.
    assert!(quagga_report.sender_app_stats.keepalives > 0);
}

#[test]
fn concurrent_transfers_share_collector_cpu() {
    let n = 8;
    let mut topo = monitoring_topology(n, TopologyOptions::default());
    let mut sim = Simulation::new(topo.take_net());
    for i in 0..n {
        let mut spec = transfer_spec(&topo, i, stream_of(8000, 100 + i as u64));
        spec.receiver_app = BgpReceiverConfig {
            processing_rate: 400_000.0,
            ..BgpReceiverConfig::default()
        };
        sim.add_connection(spec);
    }
    sim.run(Micros::from_secs(1200));
    let out = sim.into_output();
    for conn in &out.connections {
        assert_eq!(announced(&conn.archive), 8000);
    }
    // With 8 senders sharing 400 kB/s, per-connection drains slow down
    // and windows must close at least sometimes.
    let any_zero_window = out
        .connections
        .iter()
        .any(|c| !c.sender_tcp_stats.zero_window_spans.is_empty());
    assert!(any_zero_window);
}

#[test]
fn session_reset_by_script_stops_transfer() {
    let stream = stream_of(5000, 8);
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut spec = transfer_spec(&topo, 0, stream);
    // Slow the sender down so the reset lands mid-transfer.
    spec.sender_app.timer = Some(SenderTimer {
        interval: Micros::from_millis(200),
        quota: 4096,
    });
    let mut sim = Simulation::new(topo.take_net());
    let conn = sim.add_connection(spec);
    sim.add_script(Micros::from_secs(2), ScriptAction::ResetConnection(conn));
    sim.run(Micros::from_secs(60));
    let out = sim.into_output();
    let report = &out.connections[conn];
    assert_eq!(report.closed_at, Some(Micros::from_secs(2)));
    assert!(announced(&report.archive) < 5000);
    // The RST is visible at the sniffer.
    assert!(out.taps[0]
        .1
        .iter()
        .any(|f| f.tcp.flags.contains(TcpFlags::RST)));
}

#[test]
fn graceful_close_after_transfer() {
    let stream = stream_of(2000, 9);
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut sim = Simulation::new(topo.take_net());
    let conn = sim.add_connection(transfer_spec(&topo, 0, stream));
    // Admin shutdown two seconds in (well after the transfer is done).
    sim.add_script(Micros::from_secs(2), ScriptAction::CloseConnection(conn));
    sim.run(Micros::from_secs(60));
    let out = sim.into_output();
    let report = &out.connections[conn];
    assert_eq!(announced(&report.archive), 2000);
    assert!(
        report
            .events
            .iter()
            .any(|(_, e)| matches!(e, SessionEvent::Closed)),
        "graceful close recorded: {:?}",
        report.events
    );
    // Both FINs visible at the sniffer, no RST.
    let fins = out.taps[0]
        .1
        .iter()
        .filter(|f| f.tcp.flags.contains(TcpFlags::FIN))
        .count();
    assert_eq!(fins, 2, "one FIN per direction");
    assert!(out.taps[0]
        .1
        .iter()
        .all(|f| !f.tcp.flags.contains(TcpFlags::RST)));
}
