//! The discrete-event simulation driver.
//!
//! A [`Simulation`] owns a [`Network`], a set of BGP-over-TCP
//! [`ConnectionSpec`]s, optional [`PeerGroup`]s, and a script of fault
//! injections. Running it produces a [`SimOutput`]: the pcap-able frame
//! captures of every sniffer tap, the per-connection BGP archives
//! (the messages as the collector consumed them, with their times — the
//! MRT equivalent — kept as bytes and decoded only when read), and
//! ground-truth statistics for validating the analyzer.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;

use tdat_packet::TcpFrame;
use tdat_timeset::Micros;

use crate::bgpapp::{BgpReceiverApp, BgpSenderApp, MessageArchive, PeerGroup, SenderAppStats};
use crate::config::{BgpReceiverConfig, BgpSenderConfig, TcpConfig};
use crate::net::{LinkId, Network, NodeId};
use crate::tcp::{TcpEndpoint, TcpState, TcpStats, TimerKind};

/// Which endpoint of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The operational router announcing the table.
    Sender,
    /// The collector.
    Receiver,
}

/// Notable session-level happenings, recorded with timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// TCP three-way handshake completed (table transfer begins).
    Established,
    /// The side's hold timer expired; the session was torn down.
    HoldExpired(Side),
    /// The session was reset by script.
    ScriptReset,
    /// The session closed gracefully (FIN exchange completed).
    Closed,
    /// The sender finished writing the entire update stream.
    TransferWritten,
}

/// Everything needed to instantiate one BGP session in the simulation.
#[derive(Debug, Clone)]
pub struct ConnectionSpec {
    /// Node hosting the sending router.
    pub sender_node: NodeId,
    /// Node hosting the collector.
    pub receiver_node: NodeId,
    /// Sender's address and port.
    pub sender_addr: (Ipv4Addr, u16),
    /// Receiver's address and port.
    pub receiver_addr: (Ipv4Addr, u16),
    /// Sender TCP tuning.
    pub sender_tcp: TcpConfig,
    /// Receiver TCP tuning.
    pub receiver_tcp: TcpConfig,
    /// Sending BGP process tuning.
    pub sender_app: BgpSenderConfig,
    /// Receiving BGP process tuning.
    pub receiver_app: BgpReceiverConfig,
    /// The serialized update stream (the table transfer payload).
    pub stream: Vec<u8>,
    /// When the sender initiates the TCP connection.
    pub open_at: Micros,
    /// Peer-group membership (index from [`Simulation::add_group`]).
    pub group: Option<usize>,
}

/// Scripted fault injections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptAction {
    /// The node silently discards all arriving frames from `at` on.
    FailNode(NodeId),
    /// Undo a [`ScriptAction::FailNode`].
    ReviveNode(NodeId),
    /// The receiving BGP process stops consuming (processing stall).
    PauseReceiverApp(usize),
    /// Resume consumption.
    ResumeReceiverApp(usize),
    /// Reset the connection from the sender side.
    ResetConnection(usize),
    /// Close the connection gracefully from the sender side (FIN after
    /// the send queue drains; the receiver closes in response).
    CloseConnection(usize),
}

#[derive(Debug)]
enum EventKind {
    Deliver {
        link: LinkId,
        frame: TcpFrame,
    },
    TcpTimer {
        conn: usize,
        side: Side,
        kind: TimerKind,
        epoch: u64,
    },
    Open {
        conn: usize,
    },
    Quota {
        conn: usize,
    },
    Keepalive {
        conn: usize,
        side: Side,
    },
    HoldCheck {
        conn: usize,
        side: Side,
    },
    Drain {
        conn: usize,
    },
    Script {
        idx: usize,
    },
}

#[derive(Debug)]
struct Ev {
    time: Micros,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[derive(Debug)]
struct Connection {
    sender_node: NodeId,
    receiver_node: NodeId,
    sender: TcpEndpoint,
    receiver: TcpEndpoint,
    tx_app: BgpSenderApp,
    rx_app: BgpReceiverApp,
    group: Option<usize>,
    drain_pending: bool,
    sender_started: bool,
    receiver_started: bool,
    established_at: Option<Micros>,
    closed_at: Option<Micros>,
    events: Vec<(Micros, SessionEvent)>,
    transfer_written_logged: bool,
}

impl Connection {
    fn endpoint_mut(&mut self, side: Side) -> &mut TcpEndpoint {
        match side {
            Side::Sender => &mut self.sender,
            Side::Receiver => &mut self.receiver,
        }
    }

    fn node(&self, side: Side) -> NodeId {
        match side {
            Side::Sender => self.sender_node,
            Side::Receiver => self.receiver_node,
        }
    }

    fn closed(&self) -> bool {
        self.closed_at.is_some()
    }
}

/// Report for one connection after the run.
#[derive(Debug)]
pub struct ConnReport {
    /// Sender address/port.
    pub sender_addr: (Ipv4Addr, u16),
    /// Receiver address/port.
    pub receiver_addr: (Ipv4Addr, u16),
    /// When the handshake completed.
    pub established_at: Option<Micros>,
    /// When the session was torn down (if it was).
    pub closed_at: Option<Micros>,
    /// Update-stream length in bytes.
    pub stream_len: usize,
    /// The collector-side archive: every message the collector
    /// consumed, with its consumption time, as wire bytes that
    /// [`MessageArchive::iter`] decodes as it reads them.
    pub archive: MessageArchive,
    /// Sender TCP ground truth.
    pub sender_tcp_stats: TcpStats,
    /// Receiver TCP ground truth.
    pub receiver_tcp_stats: TcpStats,
    /// Sender application ground truth.
    pub sender_app_stats: SenderAppStats,
    /// Session events.
    pub events: Vec<(Micros, SessionEvent)>,
}

/// Output of a simulation run.
#[derive(Debug)]
pub struct SimOutput {
    /// `(node name, captured frames)` for every tapped node.
    pub taps: Vec<(String, Vec<TcpFrame>)>,
    /// Per-connection reports, in [`Simulation::add_connection`] order.
    pub connections: Vec<ConnReport>,
    /// Ground-truth peer-group blocking spans per group.
    pub group_blocking: Vec<Vec<tdat_timeset::Span>>,
}

/// An endpoint's `(local, remote)` address and port pair.
type EndpointPair = ((Ipv4Addr, u16), (Ipv4Addr, u16));

/// The simulation itself.
#[derive(Debug)]
pub struct Simulation {
    net: Network,
    conns: Vec<Connection>,
    /// Each endpoint's `(local, remote)` pair to its connection: the
    /// first connection added with that pair, as a scan in `conns`
    /// order would find it.
    endpoints: HashMap<EndpointPair, usize>,
    groups: Vec<PeerGroup>,
    script: Vec<(Micros, ScriptAction)>,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    now: Micros,
    /// Frames scheduled for delivery but not yet dispatched; the run
    /// loop refuses to stop while any are pending.
    frames_in_flight: usize,
    /// Scheduled script actions not yet dispatched; the run loop also
    /// refuses to stop while any remain.
    scripts_pending: usize,
}

impl Simulation {
    /// Creates a simulation over `net`.
    pub fn new(net: Network) -> Simulation {
        Simulation {
            net,
            conns: Vec::new(),
            endpoints: HashMap::new(),
            groups: Vec::new(),
            script: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: Micros::ZERO,
            frames_in_flight: 0,
            scripts_pending: 0,
        }
    }

    /// Network access (e.g. for inspecting link drops afterwards).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Declares a peer group replicating `stream_len` bytes.
    pub fn add_group(&mut self, stream_len: usize) -> usize {
        self.groups.push(PeerGroup::new(stream_len));
        self.groups.len() - 1
    }

    /// Adds a connection; returns its id.
    pub fn add_connection(&mut self, spec: ConnectionSpec) -> usize {
        let id = self.conns.len();
        let iss_base = 10_000u32.wrapping_mul(id as u32 + 1);
        let mut sender = TcpEndpoint::new(
            spec.sender_addr,
            spec.receiver_addr,
            iss_base.wrapping_add(1),
            spec.sender_tcp,
        );
        let mut receiver = TcpEndpoint::new(
            spec.receiver_addr,
            spec.sender_addr,
            iss_base.wrapping_add(77),
            spec.receiver_tcp,
        );
        receiver.open_passive();
        let _ = &mut sender;
        let tx_app = BgpSenderApp::new(spec.sender_app, spec.stream, id, spec.group);
        let rx_app = BgpReceiverApp::new(spec.receiver_app);
        if let Some(g) = spec.group {
            self.groups[g].add_member(id);
        }
        for endpoint in [&sender, &receiver] {
            self.endpoints
                .entry((endpoint.local, endpoint.remote))
                .or_insert(id);
        }
        self.conns.push(Connection {
            sender_node: spec.sender_node,
            receiver_node: spec.receiver_node,
            sender,
            receiver,
            tx_app,
            rx_app,
            group: spec.group,
            drain_pending: false,
            sender_started: false,
            receiver_started: false,
            established_at: None,
            closed_at: None,
            events: Vec::new(),
            transfer_written_logged: false,
        });
        self.schedule(spec.open_at, EventKind::Open { conn: id });
        id
    }

    /// Schedules a fault-injection action.
    pub fn add_script(&mut self, at: Micros, action: ScriptAction) {
        self.script.push((at, action));
        let idx = self.script.len() - 1;
        self.scripts_pending += 1;
        self.schedule(at, EventKind::Script { idx });
    }

    fn schedule(&mut self, time: Micros, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Ev {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Runs until `until` (simulated time) or until no events remain.
    pub fn run(&mut self, until: Micros) {
        while let Some(Reverse(ev)) = self.heap.peek() {
            if ev.time > until {
                break;
            }
            let Reverse(ev) = self.heap.pop().expect("peeked");
            self.now = self.now.max(ev.time);
            self.dispatch(ev);
            if self.all_quiet() {
                break;
            }
        }
    }

    /// True when every connection has either closed or completed its
    /// transfer end-to-end (stream written, acknowledged, and consumed)
    /// and no frames remain in flight.
    pub fn all_quiet(&self) -> bool {
        self.frames_in_flight == 0
            && self.scripts_pending == 0
            && self.conns.iter().all(|c| {
                c.closed()
                    || (c.tx_app.stats.finished_writing
                        && c.sender.flight_size() == 0
                        && c.sender.unsent_bytes() == 0
                        && c.receiver.readable_bytes() == 0
                        && !c.drain_pending)
            })
    }

    /// Drains the frames captured so far by the sniffer tap on `node`
    /// (empty if the node has no tap or nothing new arrived). The tap
    /// keeps capturing; this is the incremental "live capture" path —
    /// frames drained here no longer appear in
    /// [`into_output`](Self::into_output).
    pub fn take_tap_frames(&mut self, node: NodeId) -> Vec<TcpFrame> {
        match &mut self.net.node_mut(node).tap {
            Some(tap) => std::mem::take(&mut tap.frames),
            None => Vec::new(),
        }
    }

    /// Consumes the simulation, producing the output bundle.
    pub fn into_output(mut self) -> SimOutput {
        let mut taps = Vec::new();
        for i in 0..self.net.node_count() {
            let node = self.net.node_mut(NodeId(i));
            if let Some(tap) = node.tap.take() {
                taps.push((node.name.clone(), tap.frames));
            }
        }
        // Close any ground-truth spans still open at simulation end so
        // the reports carry exact, fully accounted truth.
        let now = self.now;
        for c in &mut self.conns {
            c.sender.finalize_truth(now);
            c.receiver.finalize_truth(now);
        }
        let connections = self
            .conns
            .into_iter()
            .map(|c| ConnReport {
                sender_addr: c.sender.local,
                receiver_addr: c.receiver.local,
                established_at: c.established_at,
                closed_at: c.closed_at,
                stream_len: c.tx_app.stream_len(),
                archive: c.rx_app.archive,
                sender_tcp_stats: c.sender.stats,
                receiver_tcp_stats: c.receiver.stats,
                sender_app_stats: c.tx_app.stats,
                events: c.events,
            })
            .collect();
        let group_blocking = self.groups.into_iter().map(|g| g.blocking_spans).collect();
        SimOutput {
            taps,
            connections,
            group_blocking,
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        let now = ev.time;
        match ev.kind {
            EventKind::Open { conn } => {
                if !self.conns[conn].closed() {
                    self.conns[conn].sender.open_active(now);
                    self.flush(now, conn);
                }
            }
            EventKind::Deliver { link, frame } => {
                self.frames_in_flight -= 1;
                self.deliver(now, link, frame);
            }
            EventKind::TcpTimer {
                conn,
                side,
                kind,
                epoch,
            } => {
                if !self.conns[conn].closed() {
                    self.conns[conn]
                        .endpoint_mut(side)
                        .on_timer(now, kind, epoch);
                    self.flush(now, conn);
                }
            }
            EventKind::Quota { conn } => self.on_quota(now, conn),
            EventKind::Keepalive { conn, side } => self.on_keepalive(now, conn, side),
            EventKind::HoldCheck { conn, side } => self.on_hold_check(now, conn, side),
            EventKind::Drain { conn } => self.on_drain(now, conn),
            EventKind::Script { idx } => {
                self.scripts_pending -= 1;
                self.on_script(now, idx);
            }
        }
    }

    fn deliver(&mut self, now: Micros, link_id: LinkId, frame: TcpFrame) {
        self.net.link_mut(link_id).delivered();
        let node_id = self.net.link(link_id).to;
        if self.net.node(node_id).failed {
            self.net.link_mut(link_id).drop_node_failed(now, &frame);
            return;
        }
        if let Some(tap) = &mut self.net.node_mut(node_id).tap {
            let mut captured = frame.clone();
            captured.timestamp = now;
            tap.frames.push(captured);
        }
        let dst = frame.ip.dst;
        let node_owns = self.net.node(node_id).addresses.contains(&dst);
        if node_owns {
            // Find the connection and side this frame belongs to.
            let local = (frame.ip.dst, frame.tcp.dst_port);
            let remote = (frame.ip.src, frame.tcp.src_port);
            if let Some(&conn) = self.endpoints.get(&(local, remote)) {
                let side = if self.conns[conn].sender.local == local {
                    Side::Sender
                } else {
                    Side::Receiver
                };
                self.conns[conn].endpoint_mut(side).on_frame(now, &frame);
                self.flush(now, conn);
            }
        } else {
            // Forward.
            if let Some(next) = self.net.route(node_id, dst) {
                self.transmit(now, next, frame);
            }
        }
    }

    /// Offers a frame to a link, scheduling its delivery if accepted.
    fn transmit(&mut self, now: Micros, link_id: LinkId, frame: TcpFrame) {
        if let Some(at) = self.net.link_mut(link_id).offer(now, &frame) {
            self.frames_in_flight += 1;
            self.schedule(
                at,
                EventKind::Deliver {
                    link: link_id,
                    frame,
                },
            );
        }
    }

    /// Sends every frame an endpoint queued, installs its timers, runs
    /// app progress hooks.
    fn flush(&mut self, now: Micros, conn: usize) {
        // 1. Drain outboxes and timer requests from both endpoints.
        for side in [Side::Sender, Side::Receiver] {
            loop {
                let c = &mut self.conns[conn];
                let frames = c.endpoint_mut(side).take_outbox();
                let timers = c.endpoint_mut(side).take_timer_requests();
                let node = c.node(side);
                if frames.is_empty() && timers.is_empty() {
                    break;
                }
                for req in timers {
                    self.schedule(
                        req.deadline,
                        EventKind::TcpTimer {
                            conn,
                            side,
                            kind: req.kind,
                            epoch: req.epoch,
                        },
                    );
                }
                for frame in frames {
                    if let Some(link) = self.net.route(node, frame.ip.dst) {
                        self.transmit(now, link, frame);
                    }
                }
            }
        }
        // 2. Establishment hooks.
        self.check_established(now, conn);
        // 2b. Graceful-close completion.
        {
            let c = &mut self.conns[conn];
            if c.closed_at.is_none()
                && c.sender_started
                && c.sender.state() == TcpState::Closed
                && c.receiver.state() == TcpState::Closed
            {
                c.closed_at = Some(now);
                c.events.push((now, SessionEvent::Closed));
            }
        }
        if self.conns[conn].closed_at == Some(now) {
            if let Some(g) = self.conns[conn].group {
                self.groups[g].remove_member(conn, now);
            }
        }
        // 3. Sender-side app progress: group accounting + socket top-up.
        self.sender_progress(now, conn);
        // 4. Receiver-side: note inbound liveness, schedule draining.
        self.receiver_progress(now, conn);
    }

    fn check_established(&mut self, now: Micros, conn: usize) {
        let c = &mut self.conns[conn];
        if !c.sender_started && c.sender.state() == TcpState::Established {
            c.sender_started = true;
            c.established_at.get_or_insert(now);
            c.events.push((now, SessionEvent::Established));
            c.tx_app.on_established(now, &mut c.sender);
            let quota_interval = c.tx_app.config().timer.map(|t| t.interval);
            let ka = c.tx_app.config().keepalive_interval;
            let hold = c.tx_app.config().hold_time;
            if let Some(interval) = quota_interval {
                self.schedule(now + interval, EventKind::Quota { conn });
            }
            self.schedule(
                now + ka,
                EventKind::Keepalive {
                    conn,
                    side: Side::Sender,
                },
            );
            self.schedule(
                now + hold / 4,
                EventKind::HoldCheck {
                    conn,
                    side: Side::Sender,
                },
            );
        }
        let c = &mut self.conns[conn];
        if !c.receiver_started && c.receiver.state() == TcpState::Established {
            c.receiver_started = true;
            c.rx_app.on_established(now, &mut c.receiver);
            let ka = c.rx_app.config().keepalive_interval;
            let hold = c.rx_app.config().hold_time;
            self.schedule(
                now + ka,
                EventKind::Keepalive {
                    conn,
                    side: Side::Receiver,
                },
            );
            self.schedule(
                now + hold / 4,
                EventKind::HoldCheck {
                    conn,
                    side: Side::Receiver,
                },
            );
            // Push out the OPEN it just wrote.
            self.pump_endpoint(now, conn, Side::Receiver);
        }
    }

    fn sender_progress(&mut self, now: Micros, conn: usize) {
        if self.conns[conn].closed() || !self.conns[conn].sender_started {
            return;
        }
        // Liveness: anything readable on the sender's receive half is a
        // BGP message from the collector.
        {
            let c = &mut self.conns[conn];
            if c.sender.readable_bytes() > 0 {
                let n = c.sender.readable_bytes();
                c.sender.app_consume(now, n, &mut Vec::new());
                c.tx_app.last_peer_message = now;
            }
        }
        // Group accounting and member top-ups.
        let group = self.conns[conn].group;
        if let Some(g) = group {
            let delivered = {
                let c = &self.conns[conn];
                c.tx_app.delivered(&c.sender)
            };
            self.groups[g].report_delivered(conn, delivered, now);
            let released = self.groups[g].released();
            // Top up every live member that writes without a quota
            // timer; quota-timer members write only on their ticks.
            let members: Vec<usize> = self
                .conns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.group == Some(g) && !c.closed() && c.sender_started)
                .map(|(i, _)| i)
                .collect();
            for m in members {
                if self.conns[m].tx_app.config().timer.is_none() {
                    let c = &mut self.conns[m];
                    let wrote = c.tx_app.feed(now, &mut c.sender, released, usize::MAX);
                    if wrote > 0 || !c.sender.take_timer_requests().is_empty() {
                        // note: feed → app_send → try_send may queue
                        // frames/timers; pump them out.
                    }
                    self.log_transfer_written(now, m);
                    self.pump_endpoint(now, m, Side::Sender);
                }
            }
        } else if self.conns[conn].tx_app.config().timer.is_none() {
            let c = &mut self.conns[conn];
            c.tx_app.feed(now, &mut c.sender, usize::MAX, usize::MAX);
            self.log_transfer_written(now, conn);
            self.pump_endpoint(now, conn, Side::Sender);
        }
    }

    fn receiver_progress(&mut self, now: Micros, conn: usize) {
        let readable = {
            let c = &self.conns[conn];
            c.receiver_started && !c.rx_app.paused && c.receiver.readable_bytes() > 0
        };
        if readable && !self.conns[conn].drain_pending {
            self.conns[conn].drain_pending = true;
            let delay = self.drain_delay(conn);
            self.schedule(now + delay, EventKind::Drain { conn });
        }
    }

    /// Time to process one drain chunk, given the collector CPU is
    /// shared among connections with pending data.
    fn drain_delay(&self, conn: usize) -> Micros {
        let active = self
            .conns
            .iter()
            .filter(|c| !c.rx_app.paused && c.receiver.readable_bytes() > 0)
            .count()
            .max(1);
        let cfg = self.conns[conn].rx_app.config();
        let rate = cfg.processing_rate / active as f64;
        Micros::from_secs_f64(cfg.drain_chunk as f64 / rate.max(1.0))
    }

    fn on_drain(&mut self, now: Micros, conn: usize) {
        self.conns[conn].drain_pending = false;
        if self.conns[conn].closed() {
            return;
        }
        let chunk = self.conns[conn].rx_app.config().drain_chunk as usize;
        {
            let c = &mut self.conns[conn];
            c.rx_app.drain(now, &mut c.receiver, chunk);
        }
        self.pump_endpoint(now, conn, Side::Receiver);
        self.receiver_progress(now, conn);
        // Consuming may have opened the window → sender may write more.
        self.sender_progress(now, conn);
    }

    fn on_quota(&mut self, now: Micros, conn: usize) {
        if self.conns[conn].closed() {
            return;
        }
        let Some(timer) = self.conns[conn].tx_app.config().timer else {
            return;
        };
        let released = match self.conns[conn].group {
            Some(g) => self.groups[g].released(),
            None => usize::MAX,
        };
        {
            let c = &mut self.conns[conn];
            c.tx_app
                .feed(now, &mut c.sender, released, timer.quota as usize);
        }
        self.log_transfer_written(now, conn);
        self.pump_endpoint(now, conn, Side::Sender);
        if !self.conns[conn].tx_app.stats.finished_writing {
            self.schedule(now + timer.interval, EventKind::Quota { conn });
        }
    }

    fn on_keepalive(&mut self, now: Micros, conn: usize, side: Side) {
        if self.conns[conn].closed() {
            return;
        }
        match side {
            Side::Sender => {
                let blocked = match self.conns[conn].group {
                    Some(g) => {
                        let released = self.groups[g].released();
                        self.conns[conn].tx_app.is_release_blocked(released)
                    }
                    None => false,
                };
                let c = &mut self.conns[conn];
                c.tx_app.keepalive(now, &mut c.sender, blocked);
                let interval = c.tx_app.config().keepalive_interval;
                self.pump_endpoint(now, conn, Side::Sender);
                self.schedule(now + interval, EventKind::Keepalive { conn, side });
            }
            Side::Receiver => {
                let c = &mut self.conns[conn];
                c.rx_app.keepalive(now, &mut c.receiver);
                let interval = c.rx_app.config().keepalive_interval;
                self.pump_endpoint(now, conn, Side::Receiver);
                self.schedule(now + interval, EventKind::Keepalive { conn, side });
            }
        }
    }

    fn on_hold_check(&mut self, now: Micros, conn: usize, side: Side) {
        if self.conns[conn].closed() {
            return;
        }
        let expired = match side {
            Side::Sender => self.conns[conn].tx_app.hold_expired(now),
            Side::Receiver => self.conns[conn].rx_app.hold_expired(now),
        };
        if expired {
            self.teardown(now, conn, SessionEvent::HoldExpired(side), side);
        } else {
            let hold = match side {
                Side::Sender => self.conns[conn].tx_app.config().hold_time,
                Side::Receiver => self.conns[conn].rx_app.config().hold_time,
            };
            self.schedule(now + hold / 8, EventKind::HoldCheck { conn, side });
        }
    }

    fn on_script(&mut self, now: Micros, idx: usize) {
        let action = self.script[idx].1.clone();
        match action {
            ScriptAction::FailNode(node) => self.net.set_failed(node, true),
            ScriptAction::ReviveNode(node) => self.net.set_failed(node, false),
            ScriptAction::PauseReceiverApp(conn) => {
                self.conns[conn].rx_app.paused = true;
            }
            ScriptAction::ResumeReceiverApp(conn) => {
                self.conns[conn].rx_app.paused = false;
                self.receiver_progress(now, conn);
            }
            ScriptAction::ResetConnection(conn) => {
                self.teardown(now, conn, SessionEvent::ScriptReset, Side::Sender);
            }
            ScriptAction::CloseConnection(conn) => {
                if !self.conns[conn].closed() {
                    let c = &mut self.conns[conn];
                    c.sender.app_close(now);
                    self.pump_endpoint(now, conn, Side::Sender);
                }
            }
        }
    }

    fn teardown(&mut self, now: Micros, conn: usize, event: SessionEvent, side: Side) {
        if self.conns[conn].closed() {
            return;
        }
        self.conns[conn].events.push((now, event));
        self.conns[conn].closed_at = Some(now);
        {
            let c = &mut self.conns[conn];
            c.endpoint_mut(side).reset(now);
        }
        self.pump_endpoint(now, conn, side);
        if let Some(g) = self.conns[conn].group {
            self.groups[g].remove_member(conn, now);
            // Unblocking the group may let other members write.
            let members: Vec<usize> = self
                .conns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.group == Some(g) && !c.closed() && c.sender_started)
                .map(|(i, _)| i)
                .collect();
            let released = self.groups[g].released();
            for m in members {
                if self.conns[m].tx_app.config().timer.is_none() {
                    let c = &mut self.conns[m];
                    c.tx_app.feed(now, &mut c.sender, released, usize::MAX);
                    self.log_transfer_written(now, m);
                    self.pump_endpoint(now, m, Side::Sender);
                }
            }
        }
    }

    fn log_transfer_written(&mut self, now: Micros, conn: usize) {
        let c = &mut self.conns[conn];
        if c.tx_app.stats.finished_writing && !c.transfer_written_logged {
            c.transfer_written_logged = true;
            c.events.push((now, SessionEvent::TransferWritten));
        }
    }

    /// Sends one endpoint's queued frames and schedules its timers
    /// (without re-running app hooks — used from within hooks).
    fn pump_endpoint(&mut self, now: Micros, conn: usize, side: Side) {
        loop {
            let c = &mut self.conns[conn];
            let frames = c.endpoint_mut(side).take_outbox();
            let timers = c.endpoint_mut(side).take_timer_requests();
            let node = c.node(side);
            if frames.is_empty() && timers.is_empty() {
                break;
            }
            for req in timers {
                self.schedule(
                    req.deadline,
                    EventKind::TcpTimer {
                        conn,
                        side,
                        kind: req.kind,
                        epoch: req.epoch,
                    },
                );
            }
            for frame in frames {
                if let Some(link) = self.net.route(node, frame.ip.dst) {
                    self.transmit(now, link, frame);
                }
            }
        }
    }
}
