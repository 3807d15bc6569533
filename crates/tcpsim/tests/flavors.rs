//! Differential tests of the congestion-control flavours: identical
//! loss patterns, different recovery behaviour (the paper assumes
//! window-based TCP — Tahoe / Reno / NewReno — and T-DAT must work for
//! all of them).

use tdat_bgp::TableGenerator;
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{Simulation, TcpConfig, TcpFlavor};
use tdat_timeset::{Micros, Span};

/// Runs the same lossy transfer under one flavour; returns
/// (duration, retransmissions, timeouts, fast retransmits).
fn run_flavor(flavor: TcpFlavor) -> (Micros, u64, u64, u64) {
    let stream = TableGenerator::new(64)
        .routes(20_000)
        .generate()
        .to_update_stream();
    let mut opts = TopologyOptions::default();
    // Deterministic loss bursts mid-transfer.
    // Very short bursts placed in the steady-state (continuous-flow)
    // part of the transfer, so they clip only one or two packets and
    // the following packets trigger duplicate ACKs — fast retransmit
    // territory. (A burst inside slow start kills whole back-to-back
    // flights and only RTO can recover.)
    opts.last_hop.loss = LossModel::Burst(vec![
        Span::from_micros(20_000, 20_200),
        Span::from_micros(35_000, 35_150),
    ]);
    let mut topo = monitoring_topology(1, opts);
    let mut spec = transfer_spec(&topo, 0, stream);
    spec.sender_tcp = TcpConfig {
        flavor,
        ..TcpConfig::default()
    };
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(900));
    let out = sim.into_output();
    let conn = &out.connections[0];
    let done = conn.archive.last_time().unwrap_or(Micros::ZERO);
    (
        done,
        conn.sender_tcp_stats.retransmissions,
        conn.sender_tcp_stats.timeouts,
        conn.sender_tcp_stats.fast_retransmits,
    )
}

/// All prefixes must arrive under every flavour (reliability).
#[test]
fn all_flavors_complete_reliably() {
    for flavor in [TcpFlavor::Tahoe, TcpFlavor::Reno, TcpFlavor::NewReno] {
        let stream = TableGenerator::new(64)
            .routes(5_000)
            .generate()
            .to_update_stream();
        let mut opts = TopologyOptions::default();
        opts.access.loss = LossModel::Random { p: 0.02, seed: 3 };
        let mut topo = monitoring_topology(1, opts);
        let mut spec = transfer_spec(&topo, 0, stream);
        spec.sender_tcp = TcpConfig {
            flavor,
            ..TcpConfig::default()
        };
        let mut sim = Simulation::new(topo.take_net());
        sim.add_connection(spec);
        sim.run(Micros::from_secs(900));
        let out = sim.into_output();
        let announced: usize = out.connections[0]
            .archive
            .iter()
            .filter_map(|(_, m)| match m {
                tdat_bgp::BgpMessage::Update(u) => Some(u.announced.len()),
                _ => None,
            })
            .sum();
        assert_eq!(announced, 5_000, "{flavor:?} must deliver everything");
    }
}

#[test]
fn flavors_differ_in_recovery_not_reliability() {
    let (d_tahoe, r_tahoe, t_tahoe, f_tahoe) = run_flavor(TcpFlavor::Tahoe);
    let (d_reno, r_reno, t_reno, f_reno) = run_flavor(TcpFlavor::Reno);
    let (d_newreno, r_newreno, t_newreno, f_newreno) = run_flavor(TcpFlavor::NewReno);

    // Every flavour saw the same bursts and retransmitted something.
    assert!(r_tahoe > 0 && r_reno > 0 && r_newreno > 0);
    // Every flavour recovered via fast retransmit or timeout (whether a
    // burst leaves ≥3 dup ACKs depends on where it cut the flight).
    assert!(f_tahoe + t_tahoe > 0);
    assert!(f_reno + t_reno > 0);
    assert!(f_newreno + t_newreno > 0);
    // At least one flavour exercised fast retransmit on this pattern.
    assert!(
        f_tahoe + f_reno + f_newreno > 0,
        "{f_tahoe} {f_reno} {f_newreno}"
    );
    // NewReno recovers multiple losses per window without extra
    // timeouts, so it is never slower than Tahoe on this pattern.
    assert!(
        d_newreno <= d_tahoe,
        "newreno {d_newreno} vs tahoe {d_tahoe}"
    );
    // And all finish within the same order of magnitude (sanity).
    let max = d_tahoe.max(d_reno).max(d_newreno);
    let min = d_tahoe.min(d_reno).min(d_newreno);
    assert!(
        max.as_micros() < min.as_micros() * 50,
        "recovery spread too wide: {min} .. {max}"
    );
}

/// Tahoe's collapse to slow start shows up as a deeper cwnd reduction
/// than Reno's fast recovery under a single mid-transfer loss.
#[test]
fn tahoe_slower_than_reno_after_single_loss() {
    let run = |flavor| {
        let stream = TableGenerator::new(65)
            .routes(30_000)
            .generate()
            .to_update_stream();
        let mut opts = TopologyOptions::default();
        // One short burst → one loss episode.
        opts.last_hop.loss = LossModel::Burst(vec![Span::new(
            Micros::from_millis(20),
            Micros::from_millis(21),
        )]);
        // A longer RTT magnifies the recovery difference.
        opts.access.propagation = Micros::from_millis(15);
        let mut topo = monitoring_topology(1, opts);
        let mut spec = transfer_spec(&topo, 0, stream);
        spec.sender_tcp = TcpConfig {
            flavor,
            ..TcpConfig::default()
        };
        let mut sim = Simulation::new(topo.take_net());
        sim.add_connection(spec);
        sim.run(Micros::from_secs(900));
        let out = sim.into_output();
        out.connections[0]
            .archive
            .last_time()
            .unwrap_or(Micros::ZERO)
    };
    let tahoe = run(TcpFlavor::Tahoe);
    let reno = run(TcpFlavor::Reno);
    assert!(
        tahoe >= reno,
        "tahoe ({tahoe}) must not beat reno ({reno}) on loss recovery"
    );
}
