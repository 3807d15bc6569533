//! Network topology: nodes, unidirectional links, queues, and sniffer
//! taps.
//!
//! A [`Network`] is a set of nodes joined by unidirectional [`Link`]s.
//! Each link models serialization delay (bandwidth), propagation delay,
//! a finite drop-tail queue, and an optional [`LossModel`]. A node can
//! carry a sniffer [`Tap`] that records every frame arriving at it —
//! placing a pass-through tap node immediately before the collector
//! reproduces the paper's "Sniffer next to Receiver" vantage (§II-A),
//! including its defining property: drops on the final hop happen
//! *after* the sniffer saw the packet (downstream/receiver-local loss),
//! while drops before it are visible only as sequence holes (upstream
//! loss).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;

use tdat_packet::TcpFrame;
use tdat_timeset::{Micros, Span};

/// Identifier of a node within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a link within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Stochastic or scripted packet loss on a link (in addition to
/// drop-tail queue overflow).
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// No extra loss.
    None,
    /// Independent loss with probability `p`, from a seeded RNG.
    Random {
        /// Drop probability per frame.
        p: f64,
        /// RNG seed (drawing is deterministic per link).
        seed: u64,
    },
    /// Drop every frame whose arrival falls inside one of the spans —
    /// scripted loss episodes for reproducing consecutive-retransmission
    /// scenarios (§II-B2).
    Burst(Vec<Span>),
}

impl LossModel {
    fn build(&self) -> LossState {
        match self {
            LossModel::None => LossState::None,
            LossModel::Random { p, seed } => LossState::Random {
                p: *p,
                rng: Box::new(StdRng::seed_from_u64(*seed)),
            },
            LossModel::Burst(spans) => LossState::Burst(spans.clone()),
        }
    }
}

#[derive(Debug)]
enum LossState {
    None,
    // Boxed: StdRng is ~330 bytes and would bloat every link.
    Random { p: f64, rng: Box<StdRng> },
    Burst(Vec<Span>),
}

impl LossState {
    fn drops(&mut self, now: Micros) -> bool {
        match self {
            LossState::None => false,
            LossState::Random { p, rng } => rng.gen_bool(*p),
            LossState::Burst(spans) => spans.iter().any(|s| s.contains(now)),
        }
    }
}

/// Static parameters of a link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub propagation: Micros,
    /// Queue capacity in packets (drop-tail).
    pub queue_packets: usize,
    /// Extra loss process.
    pub loss: LossModel,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            bandwidth_bps: 1e9,
            propagation: Micros::from_millis(1),
            queue_packets: 128,
            loss: LossModel::None,
        }
    }
}

/// A unidirectional link instance with its dynamic queue state.
#[derive(Debug)]
pub struct Link {
    /// Where frames enter.
    pub from: NodeId,
    /// Where frames are delivered.
    pub to: NodeId,
    config: LinkConfig,
    loss: LossState,
    /// Time at which the transmitter finishes serializing the last
    /// enqueued frame; also the dequeue time of the queue tail.
    busy_until: Micros,
    /// Frames currently queued or in serialization.
    in_flight: usize,
    /// Drop log: (time, reason) for ground truth.
    drops: Vec<Drop>,
}

/// One dropped frame, for ground-truth validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drop {
    /// When the frame was dropped.
    pub time: Micros,
    /// Why.
    pub reason: DropReason,
    /// TCP sequence number of the dropped frame.
    pub seq: u32,
    /// True for frames that carried payload (vs pure ACKs).
    pub had_payload: bool,
}

/// Why a link dropped a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Drop-tail queue overflow.
    QueueOverflow,
    /// The link's [`LossModel`] fired.
    LossModel,
    /// The destination node is failed/halted.
    NodeFailed,
}

impl Link {
    /// Link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Frames dropped by this link so far.
    pub fn drops(&self) -> &[Drop] {
        &self.drops
    }

    /// Offers a frame to the link at `now`. Returns the delivery time at
    /// the far end, or `None` if the frame was dropped.
    pub fn offer(&mut self, now: Micros, frame: &TcpFrame) -> Option<Micros> {
        if self.loss.drops(now) {
            self.drops.push(Drop {
                time: now,
                reason: DropReason::LossModel,
                seq: frame.tcp.seq,
                had_payload: !frame.payload.is_empty(),
            });
            return None;
        }
        if self.in_flight >= self.config.queue_packets {
            self.drops.push(Drop {
                time: now,
                reason: DropReason::QueueOverflow,
                seq: frame.tcp.seq,
                had_payload: !frame.payload.is_empty(),
            });
            return None;
        }
        let wire_bytes = frame.to_wire().len() + 24; // preamble + FCS + gap
        let ser = Micros::from_secs_f64(wire_bytes as f64 * 8.0 / self.config.bandwidth_bps);
        let start = self.busy_until.max(now);
        self.busy_until = start + ser;
        self.in_flight += 1;
        Some(self.busy_until + self.config.propagation)
    }

    /// Records that a previously offered frame finished transit (the
    /// simulator calls this when delivering).
    pub fn delivered(&mut self) {
        debug_assert!(self.in_flight > 0);
        self.in_flight -= 1;
    }

    /// Records a drop because the destination node is failed.
    pub fn drop_node_failed(&mut self, time: Micros, frame: &TcpFrame) {
        self.drops.push(Drop {
            time,
            reason: DropReason::NodeFailed,
            seq: frame.tcp.seq,
            had_payload: !frame.payload.is_empty(),
        });
    }
}

/// A sniffer capture point: every frame arriving at the tapped node is
/// recorded.
#[derive(Debug, Default)]
pub struct Tap {
    /// Captured frames in arrival order.
    pub frames: Vec<TcpFrame>,
}

/// A node: an endpoint host or a pass-through forwarder, optionally
/// tapped, optionally failed.
#[derive(Debug)]
pub struct Node {
    /// Human-readable name for diagnostics.
    pub name: String,
    /// IPv4 addresses owned by this node (endpoints terminate traffic
    /// addressed to them; other traffic is forwarded).
    pub addresses: Vec<Ipv4Addr>,
    /// Sniffer tap, if any.
    pub tap: Option<Tap>,
    /// A failed node silently discards every frame addressed *to* it and
    /// originates nothing (models the collector failure of Fig. 9).
    pub failed: bool,
    /// Next-hop link per destination address.
    routes: HashMap<Ipv4Addr, LinkId>,
}

/// The network: nodes + links + static routes.
#[derive(Debug, Default)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Adds a node owning `addresses`.
    pub fn add_node(&mut self, name: impl Into<String>, addresses: Vec<Ipv4Addr>) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            addresses,
            tap: None,
            failed: false,
            routes: HashMap::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Installs a sniffer tap on `node`.
    pub fn add_tap(&mut self, node: NodeId) {
        self.nodes[node.0].tap = Some(Tap::default());
    }

    /// Adds a unidirectional link.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        self.links.push(Link {
            from,
            to,
            loss: config.loss.build(),
            config,
            busy_until: Micros::ZERO,
            in_flight: 0,
            drops: Vec::new(),
        });
        LinkId(self.links.len() - 1)
    }

    /// Adds a pair of links (one per direction) with the same
    /// parameters, returning `(forward, reverse)`.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> (LinkId, LinkId) {
        let forward = self.add_link(a, b, config.clone());
        let reverse = self.add_link(b, a, config);
        (forward, reverse)
    }

    /// Installs a static route: at `node`, frames for `dst` leave via
    /// `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` does not originate at `node`.
    pub fn add_route(&mut self, node: NodeId, dst: Ipv4Addr, link: LinkId) {
        assert_eq!(
            self.links[link.0].from, node,
            "route at {node:?} via a link that starts elsewhere"
        );
        self.nodes[node.0].routes.insert(dst, link);
    }

    /// Looks up the egress link for `dst` at `node`.
    pub fn route(&self, node: NodeId, dst: Ipv4Addr) -> Option<LinkId> {
        self.nodes[node.0].routes.get(&dst).copied()
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Immutable link access.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Mutable link access.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Marks a node failed (it discards all arriving frames) or revives
    /// it.
    pub fn set_failed(&mut self, node: NodeId, failed: bool) {
        self.nodes[node.0].failed = failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdat_packet::FrameBuilder;

    fn frame(t: Micros, len: usize) -> TcpFrame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(t)
            .seq(1)
            .payload(vec![0; len])
            .build()
    }

    fn link(config: LinkConfig) -> Link {
        let mut net = Network::new();
        let a = net.add_node("a", vec![]);
        let b = net.add_node("b", vec![]);
        net.add_link(a, b, config);
        net.links.pop().unwrap()
    }

    #[test]
    fn serialization_and_propagation_delays_add() {
        let mut l = link(LinkConfig {
            bandwidth_bps: 8e6, // 1 byte/us
            propagation: Micros::from_millis(10),
            ..LinkConfig::default()
        });
        let f = frame(Micros::ZERO, 1000 - 24 - 54); // wire = 1000 incl overhead
        let wire_len = f.to_wire().len() + 24;
        let t = l.offer(Micros::ZERO, &f).unwrap();
        assert_eq!(t, Micros(wire_len as i64) + Micros::from_millis(10));
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let mut l = link(LinkConfig {
            bandwidth_bps: 8e6,
            propagation: Micros::ZERO,
            ..LinkConfig::default()
        });
        let f = frame(Micros::ZERO, 100);
        let t1 = l.offer(Micros::ZERO, &f).unwrap();
        let t2 = l.offer(Micros::ZERO, &f).unwrap();
        assert_eq!(t2 - t1, t1 - Micros::ZERO, "equal serialization times");
    }

    #[test]
    fn queue_overflow_drops_tail() {
        let mut l = link(LinkConfig {
            bandwidth_bps: 8e3, // slow: 1 ms per byte
            queue_packets: 2,
            ..LinkConfig::default()
        });
        let f = frame(Micros::ZERO, 100);
        assert!(l.offer(Micros::ZERO, &f).is_some());
        assert!(l.offer(Micros::ZERO, &f).is_some());
        assert!(l.offer(Micros::ZERO, &f).is_none());
        assert_eq!(l.drops().len(), 1);
        assert_eq!(l.drops()[0].reason, DropReason::QueueOverflow);
        // Delivering one frees a slot.
        l.delivered();
        assert!(l.offer(Micros::from_secs(1), &f).is_some());
    }

    #[test]
    fn burst_loss_drops_only_inside_spans() {
        let mut l = link(LinkConfig {
            loss: LossModel::Burst(vec![Span::from_micros(1000, 2000)]),
            ..LinkConfig::default()
        });
        let f = frame(Micros::ZERO, 10);
        assert!(l.offer(Micros(500), &f).is_some());
        assert!(l.offer(Micros(1500), &f).is_none());
        assert!(l.offer(Micros(2500), &f).is_some());
        assert_eq!(l.drops()[0].reason, DropReason::LossModel);
    }

    #[test]
    fn random_loss_is_deterministic_per_seed() {
        let outcomes = |seed| {
            let mut l = link(LinkConfig {
                loss: LossModel::Random { p: 0.5, seed },
                queue_packets: 10_000,
                ..LinkConfig::default()
            });
            let f = frame(Micros::ZERO, 10);
            (0..64)
                .map(|i| l.offer(Micros(i), &f).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(9), outcomes(9));
        assert_ne!(outcomes(9), outcomes(10));
    }

    #[test]
    fn routing_and_address_lookup() {
        let mut net = Network::new();
        let a = net.add_node("a", vec![Ipv4Addr::new(10, 0, 0, 1)]);
        let b = net.add_node("b", vec![Ipv4Addr::new(10, 0, 0, 2)]);
        let (fwd, rev) = net.add_duplex(a, b, LinkConfig::default());
        net.add_route(a, Ipv4Addr::new(10, 0, 0, 2), fwd);
        net.add_route(b, Ipv4Addr::new(10, 0, 0, 1), rev);
        assert_eq!(net.route(a, Ipv4Addr::new(10, 0, 0, 2)), Some(fwd));
        assert_eq!(net.route(a, Ipv4Addr::new(10, 0, 0, 99)), None);
    }

    #[test]
    #[should_panic(expected = "route at")]
    fn route_must_start_at_node() {
        let mut net = Network::new();
        let a = net.add_node("a", vec![]);
        let b = net.add_node("b", vec![]);
        let l = net.add_link(b, a, LinkConfig::default());
        net.add_route(a, Ipv4Addr::new(1, 1, 1, 1), l);
    }
}
