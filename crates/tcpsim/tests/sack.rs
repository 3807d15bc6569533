//! SACK (RFC 2018) end to end: negotiation on the wire, hole-directed
//! retransmission, and recovery improvement over cumulative-ACK-only
//! under multi-loss windows.

use tdat_bgp::TableGenerator;
use tdat_packet::TcpFlags;
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{Simulation, TcpConfig};
use tdat_timeset::{Micros, Span};

fn run(sack: bool) -> (Micros, u64, Vec<tdat_packet::TcpFrame>) {
    let stream = TableGenerator::new(77)
        .routes(30_000)
        .generate()
        .to_update_stream();
    let mut opts = TopologyOptions::default();
    // Two short clips in steady-state flow → multi-loss windows.
    opts.last_hop.loss = LossModel::Burst(vec![
        Span::from_micros(20_000, 20_200),
        Span::from_micros(21_500, 21_650),
    ]);
    let mut topo = monitoring_topology(1, opts);
    let mut spec = transfer_spec(&topo, 0, stream);
    spec.sender_tcp = TcpConfig {
        sack,
        ..TcpConfig::default()
    };
    spec.receiver_tcp = TcpConfig {
        sack,
        ..TcpConfig::default()
    };
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(900));
    let out = sim.into_output();
    let done = out.connections[0]
        .archive
        .last_time()
        .unwrap_or(Micros::ZERO);
    let timeouts = out.connections[0].sender_tcp_stats.timeouts;
    (done, timeouts, out.taps.into_iter().next().unwrap().1)
}

#[test]
fn sack_negotiated_and_blocks_on_the_wire() {
    let (_, _, frames) = run(true);
    let syn = frames
        .iter()
        .find(|f| f.tcp.flags.contains(TcpFlags::SYN))
        .expect("syn");
    assert!(syn
        .tcp
        .options
        .iter()
        .any(|o| matches!(o, tdat_packet::TcpOption::SackPermitted)));
    // Dup ACKs during the loss episode carry SACK blocks.
    let with_blocks = frames
        .iter()
        .filter(|f| f.is_pure_ack() && f.tcp.sack_blocks().is_some_and(|b| !b.is_empty()))
        .count();
    assert!(with_blocks > 0, "SACK blocks must appear on dup ACKs");
}

#[test]
fn no_blocks_without_negotiation() {
    let (_, _, frames) = run(false);
    assert!(frames
        .iter()
        .all(|f| f.tcp.sack_blocks().is_none_or(|b| b.is_empty())));
}

#[test]
fn sack_transfer_reliable() {
    let (done, _, frames) = run(true);
    assert!(done > Micros::ZERO);
    // Reassemble from the capture: all 30 000 prefixes arrive.
    let results = tdat_pcap2bgp::extract_all(&frames);
    assert_eq!(results[0].1.announced_prefixes(), 30_000);
}

#[test]
fn sack_recovers_no_slower_and_with_fewer_or_equal_timeouts() {
    let (d_sack, t_sack, _) = run(true);
    let (d_plain, t_plain, _) = run(false);
    assert!(
        t_sack <= t_plain,
        "sack timeouts {t_sack} vs plain {t_plain}"
    );
    assert!(
        d_sack.as_secs_f64() <= d_plain.as_secs_f64() * 1.1,
        "sack {d_sack} vs plain {d_plain}"
    );
}
