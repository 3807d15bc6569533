//! RFC 1323 window scaling end to end: negotiation, wire encoding, and
//! the throughput difference on a long fat path.

use tdat_bgp::TableGenerator;
use tdat_packet::TcpFlags;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{Simulation, TcpConfig};
use tdat_timeset::Micros;

fn run(scale: u8, buffer: u32) -> (Micros, Vec<tdat_packet::TcpFrame>) {
    let stream = TableGenerator::new(31)
        .routes(40_000)
        .generate()
        .to_update_stream();
    let mut opts = TopologyOptions::default();
    opts.access.propagation = Micros::from_millis(25); // ~50 ms RTT
    let mut topo = monitoring_topology(1, opts);
    let mut spec = transfer_spec(&topo, 0, stream);
    spec.sender_tcp = TcpConfig {
        window_scale: scale,
        send_buffer: 512 * 1024,
        initial_ssthresh: 1 << 20,
        ..TcpConfig::default()
    };
    spec.receiver_tcp = TcpConfig {
        window_scale: scale,
        recv_buffer: buffer,
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
    (done, out.taps.into_iter().next().unwrap().1)
}

#[test]
fn wscale_option_on_the_wire_and_unscaled_syn() {
    let (_, frames) = run(3, 256 * 1024);
    let syn = frames
        .iter()
        .find(|f| f.tcp.flags.contains(TcpFlags::SYN) && !f.tcp.flags.contains(TcpFlags::ACK))
        .expect("syn captured");
    assert_eq!(syn.tcp.window_scale(), Some(3));
    // SYN windows are never scaled: the wire field is 16 bits, so the
    // SYN simply advertises min(buffer, 64k) — check it is nonzero.
    assert!(syn.tcp.window > 0);
    let syn_ack = frames
        .iter()
        .find(|f| f.tcp.flags.contains(TcpFlags::SYN) && f.tcp.flags.contains(TcpFlags::ACK))
        .expect("syn|ack captured");
    assert_eq!(syn_ack.tcp.window_scale(), Some(3));
}

#[test]
fn scaling_unlocks_large_windows_on_long_paths() {
    // 50 ms RTT: a 64 kB window caps throughput at ~1.3 MB/s; a 256 kB
    // scaled window quadruples it.
    let (slow, _) = run(0, 65_535);
    let (fast, _) = run(3, 256 * 1024);
    // ~2× in practice (slow start and collector drain take their
    // share); require a solid improvement.
    assert!(
        fast.as_secs_f64() < slow.as_secs_f64() * 0.7,
        "scaled {fast} vs unscaled {slow}"
    );
}

#[test]
fn trace_analyzer_reports_scaled_windows() {
    let (_, frames) = run(3, 256 * 1024);
    let conns = tdat_trace::extract_connections(&frames);
    let profile = &conns[0].profile;
    assert_eq!(profile.sender_wscale, Some(3));
    assert_eq!(profile.receiver_wscale, Some(3));
    assert!(
        profile.max_receiver_window > 65_535,
        "scaled window visible: {}",
        profile.max_receiver_window
    );
    assert!(profile.max_receiver_window <= 256 * 1024);
}

#[test]
fn scaling_requires_both_sides() {
    // Receiver offers scaling, sender does not → windows stay ≤ 64 kB
    // on the wire and unscaled in the trace.
    let stream = TableGenerator::new(32)
        .routes(5_000)
        .generate()
        .to_update_stream();
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut spec = transfer_spec(&topo, 0, stream);
    spec.sender_tcp = TcpConfig {
        window_scale: 0,
        ..TcpConfig::default()
    };
    spec.receiver_tcp = TcpConfig {
        window_scale: 3,
        recv_buffer: 256 * 1024,
        ..TcpConfig::default()
    };
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(900));
    let out = sim.into_output();
    let conns = tdat_trace::extract_connections(&out.taps[0].1);
    let profile = &conns[0].profile;
    assert_eq!(profile.sender_wscale, None);
    assert!(profile.max_receiver_window <= 65_535);
    // The transfer still completes.
    let announced: usize = out.connections[0]
        .archive
        .iter()
        .filter_map(|(_, m)| match m {
            tdat_bgp::BgpMessage::Update(u) => Some(u.announced.len()),
            _ => None,
        })
        .sum();
    assert_eq!(announced, 5_000);
}
