//! Canonical topology and scenario builders.
//!
//! [`monitoring_topology`] reproduces the paper's Fig. 2 vantage: N
//! operational routers reach the collector through a switch, with a
//! sniffer tap immediately in front of the collector. Drops on the final
//! sniffer→collector hop are receiver-local (downstream) losses; drops
//! anywhere earlier are upstream losses.

use std::net::Ipv4Addr;

use tdat_timeset::{Micros, Span};

use crate::config::{BgpReceiverConfig, BgpSenderConfig, SenderTimer, TcpConfig};
use crate::net::{LinkConfig, LinkId, LossModel, Network, NodeId};
use crate::sim::{ConnectionSpec, ScriptAction, Simulation};

/// Link parameter overrides for [`monitoring_topology`].
#[derive(Debug, Clone)]
pub struct TopologyOptions {
    /// Router → switch access links (upstream path).
    pub access: LinkConfig,
    /// Switch → sniffer trunk.
    pub trunk: LinkConfig,
    /// Sniffer → collector final hop (the receiver interface, where
    /// local drops happen).
    pub last_hop: LinkConfig,
}

impl Default for TopologyOptions {
    fn default() -> Self {
        TopologyOptions {
            access: LinkConfig {
                bandwidth_bps: 1e9,
                propagation: Micros::from_millis(1),
                queue_packets: 256,
                ..LinkConfig::default()
            },
            trunk: LinkConfig {
                bandwidth_bps: 1e10,
                propagation: Micros(100),
                queue_packets: 1024,
                ..LinkConfig::default()
            },
            last_hop: LinkConfig {
                bandwidth_bps: 1e9,
                propagation: Micros(50),
                queue_packets: 64,
                ..LinkConfig::default()
            },
        }
    }
}

/// The built monitoring topology with handles to its parts.
#[derive(Debug)]
pub struct MonitoringTopology {
    /// The network (move it into [`crate::Simulation::new`]).
    pub net: Network,
    /// `(node, address)` per operational router.
    pub routers: Vec<(NodeId, Ipv4Addr)>,
    /// The aggregation switch.
    pub switch: NodeId,
    /// The tapped pass-through sniffer node.
    pub sniffer: NodeId,
    /// The collector host.
    pub collector: NodeId,
    /// Collector address.
    pub collector_addr: Ipv4Addr,
    /// Router→switch links, indexed like `routers` (upstream loss
    /// injection point).
    pub access_links: Vec<LinkId>,
    /// Sniffer→collector link (downstream/receiver-local loss injection
    /// point).
    pub last_hop_link: LinkId,
    /// Every data-path link *before* the sniffer tap (drops there are
    /// upstream losses).
    pub upstream_links: Vec<LinkId>,
    /// Every data-path link *after* the tap (drops there are
    /// downstream/receiver-local losses).
    pub downstream_links: Vec<LinkId>,
    /// ACK-path links between the receiver and the tap: ACKs dropped
    /// there never reach the capture.
    pub ack_unseen_links: Vec<LinkId>,
    /// ACK-path links between the tap and the sender: the capture saw
    /// the ACK, the sender did not.
    pub ack_seen_links: Vec<LinkId>,
}

/// Where in the monitored path a frame was dropped, relative to the
/// sniffer tap — the ground truth the passive loss-location inference
/// is scored against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropLocation {
    /// Data path before the tap: the capture never saw the frame.
    Upstream,
    /// Data path after the tap: the capture saw a frame the receiver
    /// never got (receiver-local loss at the Fig. 2 vantage).
    Downstream,
    /// ACK path before the tap: the capture never saw the ACK.
    AckUnseen,
    /// ACK path after the tap: the capture saw an ACK the sender never
    /// got.
    AckSeen,
}

/// One ground-truth drop with its location class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocatedDrop {
    /// When the frame was dropped.
    pub time: Micros,
    /// TCP sequence number of the dropped frame.
    pub seq: u32,
    /// True for frames that carried payload (vs pure ACKs).
    pub had_payload: bool,
    /// Why the link dropped it.
    pub reason: crate::net::DropReason,
    /// Which side of the tap it happened on.
    pub location: DropLocation,
}

impl MonitoringTopology {
    /// Takes the network out (to move into [`crate::Simulation::new`])
    /// while keeping the topology handles usable for building specs.
    pub fn take_net(&mut self) -> Network {
        std::mem::take(&mut self.net)
    }

    /// Collects every drop the network recorded, classified by which
    /// side of the sniffer tap its link sits on, in time order. Call
    /// with [`crate::Simulation::network`] after a run, before
    /// [`crate::Simulation::into_output`].
    pub fn located_drops(&self, net: &Network) -> Vec<LocatedDrop> {
        let mut out = Vec::new();
        let classes = [
            (&self.upstream_links, DropLocation::Upstream),
            (&self.downstream_links, DropLocation::Downstream),
            (&self.ack_unseen_links, DropLocation::AckUnseen),
            (&self.ack_seen_links, DropLocation::AckSeen),
        ];
        for (links, location) in classes {
            for &id in links.iter() {
                for drop in net.link(id).drops() {
                    out.push(LocatedDrop {
                        time: drop.time,
                        seq: drop.seq,
                        had_payload: drop.had_payload,
                        reason: drop.reason,
                        location,
                    });
                }
            }
        }
        out.sort_by_key(|d| (d.time, d.seq));
        out
    }
}

/// Builds the Fig. 2 topology with `n_routers` routers.
///
/// # Examples
///
/// ```
/// use tdat_tcpsim::scenario::{monitoring_topology, TopologyOptions};
///
/// let topo = monitoring_topology(3, TopologyOptions::default());
/// assert_eq!(topo.routers.len(), 3);
/// assert!(topo.net.node(topo.sniffer).tap.is_some());
/// ```
pub fn monitoring_topology(n_routers: usize, opts: TopologyOptions) -> MonitoringTopology {
    let mut net = Network::new();
    let collector_addr = Ipv4Addr::new(10, 0, 255, 2);
    let router_addr = |i: usize| Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250 + 1) as u8);

    let switch = net.add_node("switch", vec![]);
    let sniffer = net.add_node("sniffer", vec![]);
    net.add_tap(sniffer);
    let collector = net.add_node("collector", vec![collector_addr]);

    let (trunk_fwd, trunk_rev) = net.add_duplex(switch, sniffer, opts.trunk.clone());
    let (last_fwd, last_rev) = net.add_duplex(sniffer, collector, opts.last_hop.clone());

    // Sniffer: pass traffic onward in both directions.
    net.add_route(sniffer, collector_addr, last_fwd);
    // Collector: everything back through the sniffer.
    // Sniffer → switch for router-bound traffic handled per router below.

    let mut routers = Vec::with_capacity(n_routers);
    let mut access_links = Vec::with_capacity(n_routers);
    let mut ack_seen_links = vec![trunk_rev];
    for i in 0..n_routers {
        let addr = router_addr(i);
        let node = net.add_node(format!("router{i}"), vec![addr]);
        let (up, down) = net.add_duplex(node, switch, opts.access.clone());
        net.add_route(node, collector_addr, up);
        net.add_route(switch, addr, down);
        net.add_route(sniffer, addr, trunk_rev);
        net.add_route(collector, addr, last_rev);
        routers.push((node, addr));
        access_links.push(up);
        ack_seen_links.push(down);
    }
    net.add_route(switch, collector_addr, trunk_fwd);

    let mut upstream_links = access_links.clone();
    upstream_links.push(trunk_fwd);
    MonitoringTopology {
        net,
        routers,
        switch,
        sniffer,
        collector,
        collector_addr,
        access_links,
        last_hop_link: last_fwd,
        upstream_links,
        downstream_links: vec![last_fwd],
        ack_unseen_links: vec![last_rev],
        ack_seen_links,
    }
}

/// Builds the same topology but with the sniffer tap next to the
/// *sender* (the paper's other deployment option, §III-C2): router →
/// sniffer → switch → collector. Downstream losses are then
/// network-or-receiver; upstream losses are sender-local.
pub fn sender_side_topology(opts: TopologyOptions) -> MonitoringTopology {
    let mut net = Network::new();
    let collector_addr = Ipv4Addr::new(10, 0, 255, 2);
    let router_addr = Ipv4Addr::new(10, 0, 0, 1);

    let router = net.add_node("router0", vec![router_addr]);
    let sniffer = net.add_node("sniffer", vec![]);
    net.add_tap(sniffer);
    let switch = net.add_node("switch", vec![]);
    let collector = net.add_node("collector", vec![collector_addr]);

    // router → sniffer uses the access config (losses before the tap =
    // sender-local); sniffer → switch the trunk; switch → collector the
    // last hop (losses after the tap = downstream).
    let (r2s, s2r) = net.add_duplex(router, sniffer, opts.access.clone());
    let (s2w, w2s) = net.add_duplex(sniffer, switch, opts.trunk.clone());
    let (w2c, c2w) = net.add_duplex(switch, collector, opts.last_hop.clone());
    net.add_route(router, collector_addr, r2s);
    net.add_route(sniffer, collector_addr, s2w);
    net.add_route(switch, collector_addr, w2c);
    net.add_route(collector, router_addr, c2w);
    net.add_route(switch, router_addr, w2s);
    net.add_route(sniffer, router_addr, s2r);

    MonitoringTopology {
        net,
        routers: vec![(router, router_addr)],
        switch,
        sniffer,
        collector,
        collector_addr,
        access_links: vec![r2s],
        last_hop_link: w2c,
        upstream_links: vec![r2s],
        downstream_links: vec![s2w, w2c],
        ack_unseen_links: vec![c2w, w2s],
        ack_seen_links: vec![s2r],
    }
}

/// Creates a [`ConnectionSpec`] for a table transfer from router `i` of
/// `topo` to the collector, with default configs; customize the returned
/// spec as needed.
pub fn transfer_spec(topo: &MonitoringTopology, i: usize, stream: Vec<u8>) -> ConnectionSpec {
    let (node, addr) = topo.routers[i];
    ConnectionSpec {
        sender_node: node,
        receiver_node: topo.collector,
        sender_addr: (addr, 179),
        receiver_addr: (topo.collector_addr, 40_000 + i as u16),
        sender_tcp: TcpConfig::default(),
        receiver_tcp: TcpConfig::default(),
        sender_app: BgpSenderConfig::default(),
        receiver_app: BgpReceiverConfig::default(),
        stream,
        open_at: Micros::ZERO,
        group: None,
    }
}

/// Parameters shared by every named scenario (see [`build_scenario`]).
#[derive(Debug, Clone)]
pub struct ScenarioOptions {
    /// Routes in the generated table.
    pub routes: usize,
    /// Table-generator / loss-model seed.
    pub seed: u64,
    /// Round-trip propagation on the access link, in milliseconds.
    pub rtt_ms: f64,
}

impl Default for ScenarioOptions {
    fn default() -> ScenarioOptions {
        ScenarioOptions {
            routes: 10_000,
            seed: 1,
            rtt_ms: 2.0,
        }
    }
}

/// A named scenario, built and ready to run.
#[derive(Debug)]
pub struct BuiltScenario {
    /// The configured simulation (connections and scripts added).
    pub sim: Simulation,
    /// The tapped sniffer node, for draining captured frames.
    pub sniffer: NodeId,
    /// Simulated-time horizon the scenario completes within — pass it
    /// to [`Simulation::run`] or [`crate::LiveTap::new`].
    pub horizon: Micros,
}

/// The scenario names [`build_scenario`] understands (parameterized
/// ones accept a `:value` suffix).
pub const SCENARIO_NAMES: &[&str] = &[
    "clean",
    "timer",
    "slow",
    "smallwin",
    "uploss",
    "burst",
    "zwbug",
    "peergroup",
];

/// One-line usage summary of the scenario grammar, for CLI help texts.
pub const SCENARIO_USAGE: &str =
    "clean|timer[:ms]|slow[:rate]|smallwin|uploss[:p]|burst|zwbug|peergroup";

/// Checks a textual scenario spec against the `name[:param]` grammar
/// without building the simulation — the cheap front-end validation a
/// source *builder* wants before any table generation happens. Accepts
/// exactly the specs [`build_scenario`] accepts.
///
/// # Errors
///
/// Returns the same descriptive messages [`build_scenario`] would for
/// an unknown name, a parameter on a parameterless scenario, or a
/// parameter value that is malformed or out of range.
pub fn validate_scenario_spec(spec: &str) -> Result<(), String> {
    let (name, param) = match spec.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (spec, None),
    };
    if !SCENARIO_NAMES.contains(&name) {
        return Err(format!("unknown scenario {name:?}"));
    }
    scenario_param(name, param).map(|_| ())
}

/// The parameter of scenario `name`, parsed and range-checked: `None`
/// when there is none. A `timer` interval (ms) must round to at least
/// 1 µs and to no more than trace time holds, a `slow` rate must be
/// finite and positive, an `uploss` probability must lie in [0, 1].
///
/// # Errors
///
/// A parameter on a scenario that takes none, and a parameter that does
/// not parse as a number or breaks its range, refused alike.
fn scenario_param(name: &str, param: Option<&str>) -> Result<Option<f64>, String> {
    let Some(p) = param else {
        return Ok(None);
    };
    let (what, valid): (&str, fn(f64) -> bool) = match name {
        // The microseconds `Micros::from_secs_f64` makes of it.
        "timer" => ("interval", |ms| {
            (1.0..i64::MAX as f64).contains(&(ms / 1e3 * 1e6).round())
        }),
        "slow" => ("rate", |rate| rate.is_finite() && rate > 0.0),
        "uploss" => ("loss probability", |p| (0.0..=1.0).contains(&p)),
        _ => return Err(format!("scenario {name} takes no parameter")),
    };
    match p.parse::<f64>() {
        Ok(value) if valid(value) => Ok(Some(value)),
        _ => Err(format!("scenario {name}: bad {what} {p:?}")),
    }
}

/// Builds a canonical fault scenario from its textual spec — the shared
/// vocabulary of the `bgpsim` trace synthesizer, the `t-dat-monitor`
/// `--sim` driver, and the integration tests:
///
/// * `clean` — unimpeded transfer;
/// * `timer[:MS]` — quota-timer-paced sender (default 200 ms);
/// * `slow[:RATE]` — overloaded collector (bytes/s, default 40000);
/// * `smallwin` — 16 kB receiver window;
/// * `uploss[:P]` — random upstream loss (default 0.02);
/// * `burst` — receiver-local drop burst mid-transfer;
/// * `zwbug` — zero-window-probe discard bug under load;
/// * `peergroup` — two collectors in one peer group; one fails
///   mid-transfer and blocks the other (Fig. 9).
///
/// Identical inputs build identical simulations, so everything
/// downstream (captures, analyses, alerts) is deterministic.
///
/// # Errors
///
/// Returns a descriptive message for an unknown name, or a parameter
/// that is malformed or out of range (see [`validate_scenario_spec`]).
pub fn build_scenario(spec: &str, opts: &ScenarioOptions) -> Result<BuiltScenario, String> {
    let (name, param) = match spec.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (spec, None),
    };
    let param = scenario_param(name, param)?;

    let stream = tdat_bgp::TableGenerator::new(opts.seed)
        .routes(opts.routes)
        .generate()
        .to_update_stream();

    if name == "peergroup" {
        return Ok(build_peergroup(stream, opts));
    }

    let stream_len = stream.len();
    let mut topo_opts = TopologyOptions::default();
    topo_opts.access.propagation = Micros::from_secs_f64(opts.rtt_ms / 2.0 / 1e3);
    match name {
        "uploss" => {
            let p = param.unwrap_or(0.02);
            topo_opts.access.loss = LossModel::Random { p, seed: opts.seed };
        }
        "burst" => {
            // Aim the burst at the steady-state middle of the transfer.
            let expected_ms = (stream_len as f64 / 10_000_000.0 * 1000.0).max(20.0);
            let start = Micros::from_secs_f64(expected_ms * 0.4 / 1e3);
            topo_opts.last_hop.loss =
                LossModel::Burst(vec![Span::new(start, start + Micros::from_millis(1))]);
        }
        _ => {}
    }

    let mut topo = monitoring_topology(1, topo_opts);
    let mut spec = transfer_spec(&topo, 0, stream);
    match name {
        "clean" | "uploss" | "burst" => {}
        "timer" => {
            let ms = param.unwrap_or(200.0);
            spec.sender_app.timer = Some(SenderTimer {
                interval: Micros::from_secs_f64(ms / 1e3),
                quota: 8192,
            });
        }
        "slow" => {
            let rate = param.unwrap_or(40_000.0);
            spec.receiver_app = BgpReceiverConfig {
                processing_rate: rate,
                ..BgpReceiverConfig::default()
            };
        }
        "smallwin" => {
            spec.receiver_tcp = TcpConfig {
                recv_buffer: 16_384,
                ..TcpConfig::default()
            };
        }
        "zwbug" => {
            spec.sender_tcp.zero_window_probe_bug = true;
            spec.receiver_app.processing_rate = 25_000.0;
        }
        other => return Err(format!("unknown scenario {other:?}")),
    }

    let sniffer = topo.sniffer;
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    Ok(BuiltScenario {
        sim,
        sniffer,
        horizon: Micros::from_secs(1800),
    })
}

/// The Fig. 9 peer-group incident: one router replicates the table to
/// two collectors in a shared peer group; the second collector fails
/// mid-transfer, its session stalls toward the hold timeout, and the
/// group's shared quota blocks the healthy session for minutes.
fn build_peergroup(stream: Vec<u8>, opts: &ScenarioOptions) -> BuiltScenario {
    let mut net = Network::new();
    let router_addr = Ipv4Addr::new(10, 1, 0, 1);
    let quagga_addr = Ipv4Addr::new(10, 1, 255, 1);
    let vendor_addr = Ipv4Addr::new(10, 1, 255, 2);
    let router = net.add_node("router", vec![router_addr]);
    let sniffer = net.add_node("sniffer", vec![]);
    net.add_tap(sniffer);
    let quagga = net.add_node("quagga", vec![quagga_addr]);
    let vendor = net.add_node("vendor", vec![vendor_addr]);
    let access = LinkConfig {
        propagation: Micros::from_secs_f64(opts.rtt_ms / 2.0 / 1e3),
        ..LinkConfig::default()
    };
    let (r2s, s2r) = net.add_duplex(router, sniffer, access);
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
    let mk = |raddr: Ipv4Addr, rnode: NodeId, port: u16| ConnectionSpec {
        sender_node: router,
        receiver_node: rnode,
        sender_addr: (router_addr, port),
        receiver_addr: (raddr, 179),
        sender_tcp: TcpConfig::default(),
        receiver_tcp: TcpConfig::default(),
        sender_app: BgpSenderConfig {
            timer: Some(SenderTimer {
                interval: Micros::from_millis(200),
                quota: 8192,
            }),
            ..BgpSenderConfig::default()
        },
        receiver_app: BgpReceiverConfig::default(),
        stream: stream.clone(),
        open_at: Micros::ZERO,
        group: Some(group),
    };
    sim.add_connection(mk(quagga_addr, quagga, 50_000));
    sim.add_connection(mk(vendor_addr, vendor, 50_001));
    sim.add_script(Micros::from_secs(1), ScriptAction::FailNode(vendor));
    BuiltScenario {
        sim,
        sniffer,
        horizon: Micros::from_secs(600),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_routes_are_complete() {
        let topo = monitoring_topology(4, TopologyOptions::default());
        for (node, addr) in &topo.routers {
            // Router can reach the collector.
            assert!(topo.net.route(*node, topo.collector_addr).is_some());
            // Switch can reach the router back.
            assert!(topo.net.route(topo.switch, *addr).is_some());
            // Collector reverse path goes through the sniffer.
            assert!(topo.net.route(topo.collector, *addr).is_some());
            assert!(topo.net.route(topo.sniffer, *addr).is_some());
        }
        assert!(topo.net.route(topo.switch, topo.collector_addr).is_some());
        assert!(topo.net.route(topo.sniffer, topo.collector_addr).is_some());
    }

    #[test]
    fn transfer_spec_defaults() {
        let topo = monitoring_topology(2, TopologyOptions::default());
        let spec = transfer_spec(&topo, 1, vec![1, 2, 3]);
        assert_eq!(spec.sender_addr.1, 179);
        assert_eq!(spec.receiver_addr.0, topo.collector_addr);
        assert_eq!(spec.stream, vec![1, 2, 3]);
    }

    #[test]
    fn every_named_scenario_builds() {
        let opts = ScenarioOptions {
            routes: 50,
            ..ScenarioOptions::default()
        };
        for name in SCENARIO_NAMES {
            let built = build_scenario(name, &opts)
                .unwrap_or_else(|e| panic!("scenario {name} failed: {e}"));
            assert!(built.horizon > Micros::ZERO);
        }
        assert!(build_scenario("timer:500", &opts).is_ok());
        assert!(build_scenario("uploss:0.05", &opts).is_ok());
        assert!(build_scenario("nosuch", &opts).is_err());
        assert!(build_scenario("timer:abc", &opts).is_err());
        assert!(build_scenario("clean:1", &opts).is_err(), "stray parameter");
    }

    #[test]
    fn spec_validation_agrees_with_building() {
        let opts = ScenarioOptions {
            routes: 50,
            ..ScenarioOptions::default()
        };
        for spec in [
            "clean",
            "timer",
            "timer:500",
            "slow:20000",
            "uploss:0.05",
            "peergroup",
            "nosuch",
            "timer:abc",
            "clean:1",
            "uploss:x",
        ] {
            let validated = validate_scenario_spec(spec);
            let built = build_scenario(spec, &opts).map(|_| ());
            assert_eq!(
                validated.is_ok(),
                built.is_ok(),
                "{spec}: validator and builder disagree"
            );
            if let (Err(v), Err(b)) = (validated, built) {
                assert_eq!(v, b, "{spec}: error messages diverge");
            }
        }
    }

    #[test]
    fn scenario_build_is_deterministic() {
        let opts = ScenarioOptions {
            routes: 200,
            ..ScenarioOptions::default()
        };
        let run = |spec: &str| {
            let mut built = build_scenario(spec, &opts).unwrap();
            built.sim.run(built.horizon);
            built.sim.into_output().taps.remove(0).1
        };
        assert_eq!(run("uploss"), run("uploss"));
    }
}
