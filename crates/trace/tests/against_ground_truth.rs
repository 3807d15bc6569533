//! Validates the trace analyzer against simulator ground truth: the
//! loss-location classification must agree with where the simulator
//! actually dropped frames.

use tdat_bgp::TableGenerator;
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::Simulation;
use tdat_timeset::{Micros, Span};
use tdat_trace::{extract_connections, label_segments, loss_episodes, LabelConfig, SegLabel};

fn stream(routes: usize, seed: u64) -> Vec<u8> {
    TableGenerator::new(seed)
        .routes(routes)
        .generate()
        .to_update_stream()
}

fn run_and_label(
    topo_opts: TopologyOptions,
    routes: usize,
    seed: u64,
) -> (Vec<SegLabel>, tdat_trace::ConnProfile, usize, usize) {
    let mut topo = monitoring_topology(1, topo_opts);
    let last_hop = topo.last_hop_link;
    let access = topo.access_links[0];
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(transfer_spec(&topo, 0, stream(routes, seed)));
    sim.run(Micros::from_secs(900));
    let access_drops = sim
        .network()
        .link(access)
        .drops()
        .iter()
        .filter(|d| d.had_payload)
        .count();
    let last_hop_drops = sim
        .network()
        .link(last_hop)
        .drops()
        .iter()
        .filter(|d| d.had_payload)
        .count();
    let out = sim.into_output();
    let conns = extract_connections(&out.taps[0].1);
    assert_eq!(conns.len(), 1);
    let labels = label_segments(&conns[0], &LabelConfig::default());
    (
        labels,
        conns[0].profile.clone(),
        access_drops,
        last_hop_drops,
    )
}

#[test]
fn clean_transfer_has_no_loss_labels() {
    let (labels, profile, _, _) = run_and_label(TopologyOptions::default(), 2000, 11);
    assert!(labels.iter().all(|l| !l.is_retransmission()), "{labels:?}");
    assert!(profile.rtt.is_some());
    assert!(profile.established.is_some());
    assert_eq!(profile.mss, Some(1448));
    assert!(!profile.reset);
}

#[test]
fn downstream_drops_classified_downstream() {
    let mut opts = TopologyOptions::default();
    opts.last_hop.loss = LossModel::Burst(vec![Span::new(
        Micros::from_millis(10),
        Micros::from_millis(25),
    )]);
    let (labels, _, _, last_hop_drops) = run_and_label(opts, 20_000, 12);
    assert!(last_hop_drops > 0);
    let down = labels
        .iter()
        .filter(|l| matches!(l, SegLabel::DownstreamLoss(_)))
        .count();
    let up = labels
        .iter()
        .filter(|l| matches!(l, SegLabel::UpstreamLoss(_)))
        .count();
    assert!(down > 0, "downstream losses must be seen: {labels:?}");
    assert!(
        down >= up,
        "majority of losses classified downstream (down {down}, up {up})"
    );
}

#[test]
fn upstream_drops_classified_upstream() {
    let mut opts = TopologyOptions::default();
    opts.access.loss = LossModel::Random { p: 0.02, seed: 77 };
    let (labels, _, access_drops, _) = run_and_label(opts, 20_000, 13);
    assert!(access_drops > 0);
    let up = labels
        .iter()
        .filter(|l| matches!(l, SegLabel::UpstreamLoss(_)))
        .count();
    let down = labels
        .iter()
        .filter(|l| matches!(l, SegLabel::DownstreamLoss(_)))
        .count();
    assert!(up > 0, "upstream losses must be detected");
    assert!(
        up >= down,
        "majority of losses classified upstream (up {up}, down {down})"
    );
}

#[test]
fn burst_losses_group_into_episodes() {
    let mut opts = TopologyOptions::default();
    opts.last_hop.loss = LossModel::Burst(vec![Span::new(
        Micros::from_millis(10),
        Micros::from_millis(20),
    )]);
    let (labels, _, _, drops) = run_and_label(opts, 20_000, 14);
    assert!(drops >= 2, "burst must drop several frames ({drops})");
    let episodes = loss_episodes(&labels, Micros::from_secs(1));
    assert!(!episodes.is_empty());
    // The burst concentrates into few episodes with multiple
    // retransmissions, rather than many singletons.
    let max_retx = episodes.iter().map(|e| e.retransmissions).max().unwrap();
    assert!(max_retx >= 2, "episodes: {episodes:?}");
}

#[test]
fn profile_counts_match_capture() {
    let (_, profile, _, _) = run_and_label(TopologyOptions::default(), 1000, 15);
    assert!(profile.data_bytes > 15_000, "{}", profile.data_bytes);
    assert!(profile.frames > profile.data_segments);
    assert!(profile.d1.is_some());
    // Sniffer is next to the receiver: d1 must be far smaller than the
    // full RTT.
    let d1 = profile.d1.unwrap();
    let rtt = profile.rtt.unwrap();
    assert!(d1 < rtt / 2, "d1 {d1} vs rtt {rtt}");
}
