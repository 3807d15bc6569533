//! A window-based TCP endpoint state machine.
//!
//! Implements the TCP behaviours the paper's analysis depends on:
//! slow start and congestion avoidance, fast retransmit / fast recovery
//! (Tahoe, Reno, NewReno), RTO estimation with exponential backoff
//! (Karn's algorithm), delayed ACKs, receiver flow control driven by
//! application consumption, zero-window persist probing — and, as fault
//! injection, the zero-window-probe discard bug the paper uncovered in
//! operational routers (§IV-B, `ZeroAckBug`).
//!
//! The endpoint is purely reactive: the simulator feeds it frames and
//! timer expirations, and drains the frames it wants transmitted from
//! its outbox.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use tdat_packet::{seq_cmp, seq_diff, FrameBuilder, TcpFlags, TcpFrame, TcpOption};
use tdat_timeset::{Micros, Span};

use crate::config::{TcpConfig, TcpFlavor};

/// Initial congestion window, in segments.
const INITIAL_CWND_SEGMENTS: u32 = 2;
/// Delayed-ACK timer; an ACK is also forced by every second
/// full-sized segment (RFC 1122). Kept well below [`MIN_RTO`]: a
/// delayed ACK slower than the minimum RTO makes every transfer tail
/// spuriously retransmit.
const DELAYED_ACK: Micros = Micros::from_millis(100);
/// Lower bound of the retransmission timeout.
const MIN_RTO: Micros = Micros::from_millis(200);
/// Initial RTO before any RTT sample (RFC 6298 suggests 1 s).
const INITIAL_RTO: Micros = Micros::from_secs(1);
/// Upper bound of the RTO after backoff.
const MAX_RTO: Micros = Micros::from_secs(60);
/// Persist (zero-window probe) interval.
const PERSIST_INTERVAL: Micros = Micros::from_secs(5);

const _: () = assert!(INITIAL_CWND_SEGMENTS >= 1 && PERSIST_INTERVAL.as_micros() > 0);
const _: () = assert!(
    0 < DELAYED_ACK.as_micros()
        && DELAYED_ACK.as_micros() < MIN_RTO.as_micros()
        && MIN_RTO.as_micros() <= INITIAL_RTO.as_micros()
        && INITIAL_RTO.as_micros() <= MAX_RTO.as_micros()
);

/// Connection state (simplified FSM; data transfer is the focus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent.
    SynSent,
    /// SYN received, SYN|ACK sent.
    SynReceived,
    /// Data may flow.
    Established,
    /// Torn down by RST (or simulated failure).
    Reset,
}

/// The per-connection timers an endpoint can arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK timeout.
    DelAck,
    /// Zero-window persist probe.
    Persist,
}

/// A timer arming request: the simulator schedules an event and feeds it
/// back via [`TcpEndpoint::on_timer`] with the same epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// Which timer.
    pub kind: TimerKind,
    /// When it should fire.
    pub deadline: Micros,
    /// Arming epoch; a fire with a stale epoch is ignored.
    pub epoch: u64,
}

/// What triggered a (re)transmission outside the normal ACK clock —
/// ground truth for the differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetxCause {
    /// Retransmission-timeout expiry.
    Timeout,
    /// Third duplicate ACK (fast retransmit).
    FastRetransmit,
    /// NewReno partial-ACK retransmission during recovery.
    PartialAck,
    /// Zero-window persist probe.
    WindowProbe,
}

/// One ground-truth retransmission (or probe) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetxEvent {
    /// When the segment left the endpoint.
    pub time: Micros,
    /// First sequence number of the re-sent range.
    pub seq: u32,
    /// What triggered it.
    pub cause: RetxCause,
}

/// What was limiting the send half of an endpoint, for ground-truth
/// span accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendLimit {
    /// Nothing queued, nothing in flight: the application is the limit.
    App,
    /// The congestion window forbids sending queued data.
    Cwnd,
    /// The peer's advertised window forbids sending queued data.
    Rwnd,
}

/// Ground-truth counters the simulator exposes for validating the
/// analyzer (never consulted by T-DAT itself).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TcpStats {
    /// Data segments sent (first transmissions).
    pub data_segments: u64,
    /// Retransmitted segments (RTO or fast retransmit).
    pub retransmissions: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Fast retransmit events.
    pub fast_retransmits: u64,
    /// Zero-window probe transmissions.
    pub probes: u64,
    /// Times the zero-window-probe bug discarded a probe.
    pub bug_discards: u64,
    /// Periods during which the peer advertised a zero window.
    pub zero_window_spans: Vec<Span>,
    /// Bytes of payload acknowledged.
    pub bytes_acked: u64,
    /// Congestion window at the last ACK processed (diagnostics).
    pub last_cwnd: u32,
    /// Peer window at the last ACK processed (diagnostics).
    pub last_peer_window: u32,
    /// Largest flight size observed (diagnostics).
    pub max_flight: u32,
    /// Smallest peer window seen on an ACK while data was outstanding
    /// (diagnostics).
    pub min_peer_window_in_flight: u32,
    /// Exact periods the send half sat idle because the application had
    /// queued nothing (everything sent and acknowledged).
    pub app_limited_spans: Vec<Span>,
    /// Exact periods the congestion window was the binding constraint
    /// on queued data.
    pub cwnd_limited_spans: Vec<Span>,
    /// Exact periods the peer's advertised window was the binding
    /// constraint on queued data (zero-window periods included; when
    /// both windows bind equally the advertised window is charged).
    pub rwnd_limited_spans: Vec<Span>,
    /// Ground-truth retransmission/probe log with causes, in time
    /// order.
    pub retx_log: Vec<RetxEvent>,
}

#[derive(Debug, Default)]
struct Timer {
    epoch: u64,
    armed: bool,
    deadline: Micros,
}

impl Timer {
    fn arm(&mut self, deadline: Micros, requests: &mut Vec<TimerRequest>, kind: TimerKind) {
        self.epoch += 1;
        self.armed = true;
        self.deadline = deadline;
        requests.push(TimerRequest {
            kind,
            deadline,
            epoch: self.epoch,
        });
    }

    fn cancel(&mut self) {
        self.epoch += 1;
        self.armed = false;
    }

    fn matches(&self, epoch: u64) -> bool {
        self.armed && self.epoch == epoch
    }
}

/// One TCP endpoint of a simulated connection.
#[derive(Debug)]
pub struct TcpEndpoint {
    /// Local address/port.
    pub local: (Ipv4Addr, u16),
    /// Remote address/port.
    pub remote: (Ipv4Addr, u16),
    config: TcpConfig,
    state: TcpState,

    // ---- send half ----
    /// Bytes the application has written, indexed from `stream_base`.
    stream: Vec<u8>,
    /// Count of stream bytes already retired (ACKed and dropped from
    /// the front of `stream`).
    stream_retired: usize,
    /// Sequence number of `stream[stream_retired]` == snd_una.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// NewReno recovery point.
    recover: u32,
    in_recovery: bool,
    peer_window: u32,
    peer_mss: u32,
    srtt: Option<f64>,
    rttvar: f64,
    rto: Micros,
    backoff: u32,
    rtt_sample: Option<(u32, Micros)>,
    rto_timer: Timer,

    // ---- zero-window handling ----
    persist_timer: Timer,
    /// True while we believe the peer window is zero and a probe cycle
    /// is pending.
    probing: bool,
    /// Bug emulation: set when the window reopened while a probe was
    /// pending; the next persist decision discards the probe.
    window_opened_during_probe: bool,
    zero_window_since: Option<Micros>,
    /// What has been limiting the send half since when (ground-truth
    /// span accounting; closed into `stats` on every transition).
    limit_state: Option<(SendLimit, Micros)>,

    // ---- receive half ----
    irs: u32,
    rcv_nxt: u32,
    /// In-order bytes received and not yet consumed by the application.
    recv_buf: Vec<u8>,
    /// Out-of-order segments keyed by starting seq.
    ooo: BTreeMap<u32, Vec<u8>>,
    delack_timer: Timer,
    delack_pending: bool,
    segs_since_ack: u32,
    last_advertised: u32,
    /// Shift applied to windows we advertise (0 until negotiated).
    rcv_wscale: u8,
    /// Shift applied to windows the peer advertises.
    snd_wscale: u8,
    /// The peer offered window scaling in its SYN.
    peer_offered_wscale: Option<u8>,
    /// SACK negotiated (both sides offered RFC 2018).
    sack_enabled: bool,
    /// Timestamps negotiated (both sides offered RFC 1323 TSopt).
    ts_enabled: bool,
    /// The application requested a graceful close; a FIN is sent once
    /// the send buffer drains.
    close_pending: bool,
    /// Sequence number our FIN occupies, once sent.
    fin_seq: Option<u32>,
    /// The peer's FIN has been received and acknowledged.
    peer_fin: bool,
    /// Most recent TSval received from the peer (echoed as TSecr).
    ts_recent: u32,
    /// Sender scoreboard: peer-SACKed `[start, end)` ranges above
    /// `snd_una`, sorted, disjoint.
    scoreboard: Vec<(u32, u32)>,
    /// Start of the most recently arrived out-of-order block (for SACK
    /// block ordering).
    last_ooo_seq: Option<u32>,

    // ---- plumbing ----
    outbox: Vec<TcpFrame>,
    timer_requests: Vec<TimerRequest>,
    ip_id: u16,
    /// Ground truth for analyzer validation.
    pub stats: TcpStats,
}

impl TcpEndpoint {
    /// Creates an endpoint in [`TcpState::Closed`]; call
    /// [`open_active`](Self::open_active) or
    /// [`open_passive`](Self::open_passive).
    pub fn new(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        config: TcpConfig,
    ) -> TcpEndpoint {
        let cwnd = (INITIAL_CWND_SEGMENTS * config.mss) as f64;
        let ssthresh = config.initial_ssthresh as f64;
        let rto = INITIAL_RTO;
        let peer_mss = config.mss;
        TcpEndpoint {
            local,
            remote,
            config,
            state: TcpState::Closed,
            stream: Vec::new(),
            stream_retired: 0,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            cwnd,
            ssthresh,
            dup_acks: 0,
            recover: iss,
            in_recovery: false,
            peer_window: 0,
            peer_mss,
            srtt: None,
            rttvar: 0.0,
            rto,
            backoff: 0,
            rtt_sample: None,
            rto_timer: Timer::default(),
            persist_timer: Timer::default(),
            probing: false,
            window_opened_during_probe: false,
            zero_window_since: None,
            limit_state: None,
            irs: 0,
            rcv_nxt: 0,
            recv_buf: Vec::new(),
            ooo: BTreeMap::new(),
            delack_timer: Timer::default(),
            delack_pending: false,
            segs_since_ack: 0,
            last_advertised: 0,
            rcv_wscale: 0,
            snd_wscale: 0,
            peer_offered_wscale: None,
            sack_enabled: false,
            ts_enabled: false,
            ts_recent: 0,
            close_pending: false,
            fin_seq: None,
            peer_fin: false,
            scoreboard: Vec::new(),
            last_ooo_seq: None,
            outbox: Vec::new(),
            timer_requests: Vec::new(),
            ip_id: 0,
            stats: TcpStats::default(),
        }
    }

    /// Connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Effective maximum segment size (negotiated minimum).
    pub fn mss(&self) -> u32 {
        self.config.mss.min(self.peer_mss)
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd as u32
    }

    /// Bytes in flight (sent, unacknowledged).
    pub fn flight_size(&self) -> u32 {
        seq_diff(self.snd_nxt, self.snd_una).max(0) as u32
    }

    /// Free space in the send buffer.
    pub fn send_buffer_space(&self) -> usize {
        let queued = self.stream.len() - self.stream_retired;
        (self.config.send_buffer as usize).saturating_sub(queued)
    }

    /// Bytes queued but not yet sent.
    pub fn unsent_bytes(&self) -> usize {
        let sent = seq_diff(self.snd_nxt, self.snd_una).max(0) as usize;
        (self.stream.len() - self.stream_retired).saturating_sub(sent)
    }

    /// In-order received bytes awaiting the application.
    pub fn readable_bytes(&self) -> usize {
        self.recv_buf.len()
    }

    /// Frames the endpoint wants transmitted (drained by the
    /// simulator).
    pub fn take_outbox(&mut self) -> Vec<TcpFrame> {
        std::mem::take(&mut self.outbox)
    }

    /// Timer arming requests issued since the last call.
    pub fn take_timer_requests(&mut self) -> Vec<TimerRequest> {
        std::mem::take(&mut self.timer_requests)
    }

    // ------------------------------------------------------------------
    // Opening and closing
    // ------------------------------------------------------------------

    /// Active open: emits a SYN.
    pub fn open_active(&mut self, now: Micros) {
        assert_eq!(self.state, TcpState::Closed, "open on a used endpoint");
        self.state = TcpState::SynSent;
        self.snd_nxt = self.iss.wrapping_add(1);
        let builder = self
            .frame_builder(now)
            .seq(self.iss)
            .flags(TcpFlags::SYN)
            .window(self.config.recv_buffer.min(65_535) as u16);
        let syn = self.with_syn_options(builder).build();
        self.outbox.push(syn);
        let deadline = now + self.rto;
        self.rto_timer
            .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
    }

    /// Passive open: waits for a SYN.
    pub fn open_passive(&mut self) {
        assert_eq!(self.state, TcpState::Closed, "open on a used endpoint");
        self.state = TcpState::Listen;
    }

    /// Requests a graceful close: a FIN is emitted once all queued data
    /// has been sent; the connection reaches [`TcpState::Closed`] when
    /// the FIN is acknowledged and the peer's FIN has arrived.
    pub fn app_close(&mut self, now: Micros) {
        if self.state != TcpState::Established || self.close_pending {
            return;
        }
        self.close_pending = true;
        self.try_send(now);
        self.note_limit(now);
    }

    /// True once this endpoint's FIN was acknowledged.
    pub fn fin_acked(&self) -> bool {
        match self.fin_seq {
            Some(seq) => seq_diff(self.snd_una, seq) > 0,
            None => false,
        }
    }

    fn maybe_finish_close(&mut self) {
        if self.peer_fin && self.fin_acked() {
            self.state = TcpState::Closed;
            self.rto_timer.cancel();
            self.persist_timer.cancel();
            self.delack_timer.cancel();
        }
    }

    /// Sends a RST and closes (session teardown on hold-timer expiry).
    pub fn reset(&mut self, now: Micros) {
        if matches!(self.state, TcpState::Closed | TcpState::Reset) {
            return;
        }
        let rst = self
            .frame_builder(now)
            .seq(self.snd_nxt)
            .ack_to(self.rcv_nxt)
            .flags(TcpFlags::RST | TcpFlags::ACK)
            .build();
        self.outbox.push(rst);
        self.close_zero_window_span(now);
        self.state = TcpState::Reset;
        self.rto_timer.cancel();
        self.persist_timer.cancel();
        self.delack_timer.cancel();
        self.note_limit(now);
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Writes up to `data.len()` bytes into the send buffer; returns how
    /// many were accepted (bounded by free buffer space).
    pub fn app_send(&mut self, now: Micros, data: &[u8]) -> usize {
        let space = self.send_buffer_space();
        let n = space.min(data.len());
        self.stream.extend_from_slice(&data[..n]);
        if self.state == TcpState::Established {
            self.try_send(now);
        }
        self.note_limit(now);
        n
    }

    /// Consumes up to `max` in-order received bytes, as the application
    /// reading from the socket. Opens the advertised window; a window
    /// update ACK is emitted when the window grows from below one MSS to
    /// at least two.
    pub fn app_consume(&mut self, now: Micros, max: usize) -> Vec<u8> {
        let n = max.min(self.recv_buf.len());
        let out: Vec<u8> = self.recv_buf.drain(..n).collect();
        if n > 0 && self.state == TcpState::Established {
            let window = self.advertised_window();
            if self.last_advertised < self.mss() && window >= 2 * self.mss() {
                self.emit_ack(now);
            }
        }
        out
    }

    /// The window the receive half would advertise right now: buffer
    /// capacity minus in-order bytes the application has not consumed.
    /// Out-of-order segments do *not* shrink the advertisement (they
    /// occupy space already promised by an earlier window), which also
    /// keeps the window constant while dup-ACKing — required for the
    /// sender's duplicate-ACK detection.
    pub fn advertised_window(&self) -> u32 {
        let raw = (self.config.recv_buffer as usize).saturating_sub(self.recv_buf.len()) as u32;
        // Without negotiated scaling the wire caps us at 64 kB.
        if self.rcv_wscale == 0 {
            raw.min(65_535)
        } else {
            raw
        }
    }

    // ------------------------------------------------------------------
    // Frame and timer input
    // ------------------------------------------------------------------

    /// Processes a frame addressed to this endpoint.
    pub fn on_frame(&mut self, now: Micros, frame: &TcpFrame) {
        if frame.tcp.flags.contains(TcpFlags::RST) {
            self.close_zero_window_span(now);
            self.state = TcpState::Reset;
            self.rto_timer.cancel();
            self.persist_timer.cancel();
            self.delack_timer.cancel();
            self.note_limit(now);
            return;
        }
        match self.state {
            TcpState::Closed | TcpState::Reset => {}
            TcpState::Listen => self.on_frame_listen(now, frame),
            TcpState::SynSent => self.on_frame_syn_sent(now, frame),
            TcpState::SynReceived => self.on_frame_syn_received(now, frame),
            TcpState::Established => self.on_frame_established(now, frame),
        }
        self.note_limit(now);
    }

    /// Processes a timer expiration previously requested via
    /// [`take_timer_requests`](Self::take_timer_requests).
    pub fn on_timer(&mut self, now: Micros, kind: TimerKind, epoch: u64) {
        match kind {
            TimerKind::Rto => {
                if self.rto_timer.matches(epoch) {
                    self.rto_timer.cancel();
                    self.on_rto(now);
                }
            }
            TimerKind::DelAck => {
                if self.delack_timer.matches(epoch) {
                    self.delack_timer.cancel();
                    if self.delack_pending {
                        self.emit_ack(now);
                    }
                }
            }
            TimerKind::Persist => {
                if self.persist_timer.matches(epoch) {
                    self.persist_timer.cancel();
                    self.on_persist(now);
                }
            }
        }
        self.note_limit(now);
    }

    // ------------------------------------------------------------------
    // FSM transitions
    // ------------------------------------------------------------------

    fn on_frame_listen(&mut self, now: Micros, frame: &TcpFrame) {
        if !frame.tcp.flags.contains(TcpFlags::SYN) {
            return;
        }
        self.irs = frame.tcp.seq;
        self.rcv_nxt = frame.tcp.seq.wrapping_add(1);
        if let Some(mss) = frame.tcp.mss() {
            self.peer_mss = mss as u32;
        }
        self.peer_offered_wscale = frame.tcp.window_scale();
        self.negotiate_wscale();
        self.negotiate_sack(frame);
        self.peer_window = frame.tcp.window as u32; // SYN window never scaled
        self.state = TcpState::SynReceived;
        self.snd_nxt = self.iss.wrapping_add(1);
        let builder = self
            .frame_builder(now)
            .seq(self.iss)
            .ack_to(self.rcv_nxt)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .window(self.config.recv_buffer.min(65_535) as u16);
        let syn_ack = self.with_syn_options(builder).build();
        self.outbox.push(syn_ack);
        let deadline = now + self.rto;
        self.rto_timer
            .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
    }

    fn on_frame_syn_sent(&mut self, now: Micros, frame: &TcpFrame) {
        if !frame.tcp.flags.contains(TcpFlags::SYN) || !frame.tcp.flags.contains(TcpFlags::ACK) {
            return;
        }
        if frame.tcp.ack != self.iss.wrapping_add(1) {
            return;
        }
        self.irs = frame.tcp.seq;
        self.rcv_nxt = frame.tcp.seq.wrapping_add(1);
        if let Some(mss) = frame.tcp.mss() {
            self.peer_mss = mss as u32;
        }
        self.peer_offered_wscale = frame.tcp.window_scale();
        self.negotiate_wscale();
        self.negotiate_sack(frame);
        self.peer_window = frame.tcp.window as u32; // SYN window never scaled
        self.snd_una = frame.tcp.ack;
        self.state = TcpState::Established;
        self.rto_timer.cancel();
        self.backoff = 0;
        self.emit_ack(now);
        self.try_send(now);
    }

    fn on_frame_syn_received(&mut self, now: Micros, frame: &TcpFrame) {
        if frame.tcp.flags.contains(TcpFlags::ACK) && frame.tcp.ack == self.iss.wrapping_add(1) {
            self.snd_una = frame.tcp.ack;
            self.peer_window = frame.tcp.window as u32;
            self.state = TcpState::Established;
            self.rto_timer.cancel();
            self.backoff = 0;
            // The handshake ACK may carry data.
            if !frame.payload.is_empty() {
                self.on_frame_established(now, frame);
            } else {
                self.try_send(now);
            }
        }
    }

    fn on_frame_established(&mut self, now: Micros, frame: &TcpFrame) {
        if self.ts_enabled {
            for opt in &frame.tcp.options {
                if let TcpOption::Timestamps(val, _) = opt {
                    self.ts_recent = *val;
                }
            }
        }
        if frame.tcp.flags.contains(TcpFlags::ACK) {
            self.process_ack(now, frame);
        }
        if !frame.payload.is_empty() {
            self.process_data(now, frame);
        }
        // Peer FIN: in order (right at rcv_nxt after its payload), it
        // consumes one sequence number and is acknowledged immediately.
        if frame.tcp.flags.contains(TcpFlags::FIN) && !self.peer_fin {
            let fin_at = frame.tcp.seq.wrapping_add(frame.payload.len() as u32);
            if fin_at == self.rcv_nxt {
                self.peer_fin = true;
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.emit_ack(now);
                // Passive close: once the peer finished sending, this
                // side closes too (our apps never half-close).
                self.close_pending = true;
            }
        }
        self.try_send(now);
        self.maybe_finish_close();
    }

    // ------------------------------------------------------------------
    // Sender side
    // ------------------------------------------------------------------

    fn process_ack(&mut self, now: Micros, frame: &TcpFrame) {
        let ack = frame.tcp.ack;
        if self.sack_enabled {
            if let Some(blocks) = frame.tcp.sack_blocks() {
                for &(start, end) in blocks {
                    self.score(start, end);
                }
            }
        }
        let window = (frame.tcp.window as u32) << self.snd_wscale;
        if self.flight_size() > 0 {
            let m = &mut self.stats.min_peer_window_in_flight;
            *m = if *m == 0 { window } else { (*m).min(window) };
        }
        let old_window = self.peer_window;
        self.peer_window = window;
        self.track_zero_window(now, window);

        match seq_cmp(ack, self.snd_una) {
            std::cmp::Ordering::Greater if seq_diff(ack, self.snd_nxt) <= 0 => {
                self.on_new_ack(now, ack)
            }
            std::cmp::Ordering::Equal => {
                let is_dup = frame.is_pure_ack() && self.flight_size() > 0 && window == old_window;
                if is_dup {
                    self.on_dup_ack(now);
                } else if window > 0 && old_window == 0 {
                    self.on_window_open(now);
                }
            }
            _ => {} // old ACK or ack beyond snd_nxt: ignore
        }
        if window > 0 && old_window == 0 {
            self.on_window_open(now);
        }
        // All data acked and peer window zero while data remains: probe.
        if self.peer_window == 0
            && self.flight_size() == 0
            && self.unsent_bytes() > 0
            && !self.probing
        {
            self.probing = true;
            self.window_opened_during_probe = false;
            let deadline = now + PERSIST_INTERVAL;
            self.persist_timer
                .arm(deadline, &mut self.timer_requests, TimerKind::Persist);
        }
    }

    fn on_new_ack(&mut self, now: Micros, ack: u32) {
        let acked = seq_diff(ack, self.snd_una) as u64;
        self.stats.bytes_acked += acked;
        // RTT sampling (Karn: sample cleared on retransmission).
        if let Some((sample_seq, sent_at)) = self.rtt_sample {
            if seq_diff(ack, sample_seq) >= 0 {
                let sample = (now - sent_at).as_micros() as f64;
                self.update_rtt(sample);
                self.rtt_sample = None;
            }
        }
        self.backoff = 0;

        // Retire the acked prefix of the stream. A FIN occupies one
        // sequence number but no stream byte; clamp accordingly.
        let retire = (acked as usize).min(self.stream.len() - self.stream_retired);
        self.stream_retired += retire;
        if self.stream_retired > 1 << 20 {
            self.stream.drain(..self.stream_retired);
            self.stream_retired = 0;
        }
        self.snd_una = ack;
        if seq_cmp(self.snd_nxt, self.snd_una) == std::cmp::Ordering::Less {
            self.snd_nxt = self.snd_una;
        }
        // Drop scoreboard ranges the cumulative ACK has passed.
        self.scoreboard
            .retain(|&(_, end)| seq_diff(end, self.snd_una) > 0);
        for range in &mut self.scoreboard {
            if seq_diff(self.snd_una, range.0) > 0 {
                range.0 = self.snd_una;
            }
        }

        let mss = self.mss() as f64;
        if self.in_recovery {
            match self.config.flavor {
                TcpFlavor::NewReno => {
                    if seq_diff(ack, self.recover) >= 0 {
                        self.in_recovery = false;
                        self.cwnd = self.ssthresh;
                        self.dup_acks = 0;
                    } else {
                        // Partial ACK: retransmit the next hole, deflate.
                        self.retransmit_one(now, RetxCause::PartialAck);
                        self.cwnd = (self.cwnd - acked as f64 + mss).max(mss);
                    }
                }
                TcpFlavor::Reno | TcpFlavor::Tahoe => {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                    self.dup_acks = 0;
                }
            }
        } else {
            self.dup_acks = 0;
            if self.cwnd < self.ssthresh {
                self.cwnd += (acked as f64).min(mss); // slow start
            } else {
                self.cwnd += mss * mss / self.cwnd; // congestion avoidance
            }
        }

        if self.flight_size() > 0 {
            let deadline = now + self.current_rto();
            self.rto_timer
                .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
        } else {
            self.rto_timer.cancel();
        }
        self.stats.last_cwnd = self.cwnd as u32;
        self.stats.last_peer_window = self.peer_window;
        self.maybe_finish_close();
    }

    fn on_dup_ack(&mut self, now: Micros) {
        self.dup_acks += 1;
        let mss = self.mss() as f64;
        if self.in_recovery {
            self.cwnd += mss; // window inflation
            return;
        }
        if self.dup_acks == 3 {
            let flight = self.flight_size() as f64;
            self.ssthresh = (flight / 2.0).max(2.0 * mss);
            self.stats.fast_retransmits += 1;
            match self.config.flavor {
                TcpFlavor::Tahoe => {
                    // Collapse to slow start and retransmit the hole.
                    // (No go-back-N snd_nxt reset: cumulative ACKs for
                    // out-of-order data the receiver already buffered
                    // must remain valid against snd_nxt.)
                    self.cwnd = mss;
                    self.retransmit_one(now, RetxCause::FastRetransmit);
                }
                TcpFlavor::Reno | TcpFlavor::NewReno => {
                    self.in_recovery = true;
                    self.recover = self.snd_nxt;
                    self.cwnd = self.ssthresh + 3.0 * mss;
                    self.retransmit_one(now, RetxCause::FastRetransmit);
                }
            }
        }
    }

    fn on_window_open(&mut self, now: Micros) {
        if !self.probing {
            return;
        }
        self.probing = false;
        self.persist_timer.cancel();
        if self.config.zero_window_probe_bug {
            // The buggy sender discards the queued probe. Emulate the
            // observable consequence: one stream byte is consumed
            // without ever being transmitted, leaving a sequence hole
            // the peer can never ACK past; recovery happens only via
            // retransmission (§IV-B ZeroAckBug).
            if self.unsent_bytes() > 0 {
                self.stats.bug_discards += 1;
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                let deadline = now + self.current_rto();
                self.rto_timer
                    .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
            }
        }
        self.window_opened_during_probe = false;
    }

    fn on_persist(&mut self, now: Micros) {
        if !self.probing || self.state != TcpState::Established {
            return;
        }
        if self.peer_window > 0 {
            // Window opened concurrently; resume.
            self.probing = false;
            self.try_send(now);
            return;
        }
        // Send a 1-byte probe beyond the window (not consuming seq
        // space; the byte is re-sent as normal data once the window
        // opens).
        if self.unsent_bytes() > 0 {
            let idx = self.stream_retired + seq_diff(self.snd_nxt, self.snd_una).max(0) as usize;
            let byte = self.stream[idx];
            let probe = self
                .frame_builder(now)
                .seq(self.snd_nxt)
                .ack_to(self.rcv_nxt)
                .flags(TcpFlags::ACK | TcpFlags::PSH)
                .window(self.wire_window(self.advertised_window()))
                .payload(vec![byte])
                .build();
            self.outbox.push(probe);
            self.stats.probes += 1;
            self.stats.retx_log.push(RetxEvent {
                time: now,
                seq: self.snd_nxt,
                cause: RetxCause::WindowProbe,
            });
        }
        let deadline = now + PERSIST_INTERVAL;
        self.persist_timer
            .arm(deadline, &mut self.timer_requests, TimerKind::Persist);
    }

    fn on_rto(&mut self, now: Micros) {
        match self.state {
            TcpState::SynSent => {
                // Retransmit SYN.
                self.backoff += 1;
                let builder = self
                    .frame_builder(now)
                    .seq(self.iss)
                    .flags(TcpFlags::SYN)
                    .window(self.config.recv_buffer.min(65_535) as u16);
                let syn = self.with_syn_options(builder).build();
                self.outbox.push(syn);
                self.stats.retransmissions += 1;
                let deadline = now + self.current_rto();
                self.rto_timer
                    .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
            }
            TcpState::SynReceived => {
                self.backoff += 1;
                let builder = self
                    .frame_builder(now)
                    .seq(self.iss)
                    .ack_to(self.rcv_nxt)
                    .flags(TcpFlags::SYN | TcpFlags::ACK)
                    .window(self.config.recv_buffer.min(65_535) as u16);
                let syn_ack = self.with_syn_options(builder).build();
                self.outbox.push(syn_ack);
                self.stats.retransmissions += 1;
                let deadline = now + self.current_rto();
                self.rto_timer
                    .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
            }
            TcpState::Established => {
                if self.flight_size() == 0 {
                    return;
                }
                self.stats.timeouts += 1;
                self.backoff += 1;
                let mss = self.mss() as f64;
                self.ssthresh = (self.flight_size() as f64 / 2.0).max(2.0 * mss);
                self.cwnd = mss;
                self.in_recovery = false;
                self.dup_acks = 0;
                self.rtt_sample = None; // Karn
                self.retransmit_one(now, RetxCause::Timeout);
                let deadline = now + self.current_rto();
                self.rto_timer
                    .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
            }
            _ => {}
        }
    }

    /// Records a SACKed range on the scoreboard (merging as needed).
    fn score(&mut self, start: u32, end: u32) {
        if seq_diff(end, start) <= 0 || seq_diff(end, self.snd_una) <= 0 {
            return;
        }
        let start = if seq_diff(self.snd_una, start) > 0 {
            self.snd_una
        } else {
            start
        };
        self.scoreboard.push((start, end));
        self.scoreboard.sort_by_key(|a| seq_diff(a.0, self.snd_una));
        // Merge overlaps.
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.scoreboard.len());
        for &(s, e) in &self.scoreboard {
            match merged.last_mut() {
                Some((_, le)) if seq_diff(s, *le) <= 0 => {
                    if seq_diff(e, *le) > 0 {
                        *le = e;
                    }
                }
                _ => merged.push((s, e)),
            }
        }
        self.scoreboard = merged;
    }

    fn retransmit_one(&mut self, now: Micros, cause: RetxCause) {
        let outstanding = self.flight_size();
        if outstanding == 0 {
            return;
        }
        // The hole may be the FIN itself.
        if self.fin_seq == Some(self.snd_una) {
            let builder = self
                .frame_builder(now)
                .seq(self.snd_una)
                .ack_to(self.rcv_nxt)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .window(self.wire_window(self.advertised_window()));
            let fin = self.with_timestamps(builder, now).build();
            self.outbox.push(fin);
            self.stats.retransmissions += 1;
            self.stats.retx_log.push(RetxEvent {
                time: now,
                seq: self.snd_una,
                cause,
            });
            self.rtt_sample = None;
            return;
        }
        // With SACK, the hole ends where the first SACKed range begins.
        let hole = self
            .scoreboard
            .first()
            .map(|&(s, _)| seq_diff(s, self.snd_una).max(1) as u32)
            .unwrap_or(outstanding);
        // Never read past the stream for the FIN's phantom byte.
        let stream_left = (self.stream.len() - self.stream_retired) as u32;
        let len = outstanding
            .min(hole)
            .min(self.mss())
            .min(stream_left.max(1)) as usize;
        if stream_left == 0 {
            return; // only the FIN is outstanding and handled above
        }
        let start = self.stream_retired;
        let payload = self.stream[start..start + len].to_vec();
        let builder = self
            .frame_builder(now)
            .seq(self.snd_una)
            .ack_to(self.rcv_nxt)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .window(self.wire_window(self.advertised_window()))
            .payload(payload);
        let frame = self.with_timestamps(builder, now).build();
        self.outbox.push(frame);
        self.stats.retransmissions += 1;
        self.stats.retx_log.push(RetxEvent {
            time: now,
            seq: self.snd_una,
            cause,
        });
        self.rtt_sample = None; // Karn: never time a retransmitted range
    }

    /// Transmits whatever the congestion and flow-control windows
    /// permit.
    pub fn try_send(&mut self, now: Micros) {
        if self.state != TcpState::Established {
            return;
        }
        self.send_permitted(now);
        // Graceful close: once everything queued has been handed to the
        // wire, send the FIN (it occupies one sequence number).
        if self.close_pending && self.fin_seq.is_none() && self.unsent_bytes() == 0 {
            let builder = self
                .frame_builder(now)
                .seq(self.snd_nxt)
                .ack_to(self.rcv_nxt)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .window(self.wire_window(self.advertised_window()));
            let fin = self.with_timestamps(builder, now).build();
            self.outbox.push(fin);
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            if !self.rto_timer.armed {
                let deadline = now + self.current_rto();
                self.rto_timer
                    .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
            }
        }
    }

    fn send_permitted(&mut self, now: Micros) {
        loop {
            let window = (self.cwnd as u32).min(self.peer_window);
            let usable = window as i64 - self.flight_size() as i64;
            let avail = self.unsent_bytes();
            if usable < self.mss() as i64 && (usable <= 0 || avail == 0) {
                break;
            }
            if avail == 0 {
                break;
            }
            let len = (self.mss() as i64).min(usable).min(avail as i64) as usize;
            if len == 0 {
                break;
            }
            let offset = self.stream_retired + self.flight_size() as usize;
            let payload = self.stream[offset..offset + len].to_vec();
            let last = len == avail;
            let mut flags = TcpFlags::ACK;
            if last {
                flags |= TcpFlags::PSH;
            }
            let builder = self
                .frame_builder(now)
                .seq(self.snd_nxt)
                .ack_to(self.rcv_nxt)
                .flags(flags)
                .window(self.wire_window(self.advertised_window()))
                .payload(payload);
            let frame = self.with_timestamps(builder, now).build();
            self.outbox.push(frame);
            self.stats.data_segments += 1;
            if self.rtt_sample.is_none() && !self.in_recovery {
                self.rtt_sample = Some((self.snd_nxt.wrapping_add(len as u32), now));
            }
            self.snd_nxt = self.snd_nxt.wrapping_add(len as u32);
            self.stats.max_flight = self.stats.max_flight.max(self.flight_size());
            // Sending cancels any pending delayed ACK (it piggybacked).
            self.delack_pending = false;
            self.segs_since_ack = 0;
            if !self.rto_timer.armed {
                let deadline = now + self.current_rto();
                self.rto_timer
                    .arm(deadline, &mut self.timer_requests, TimerKind::Rto);
            }
        }
    }

    // ------------------------------------------------------------------
    // Receiver side
    // ------------------------------------------------------------------

    fn process_data(&mut self, now: Micros, frame: &TcpFrame) {
        let seq = frame.tcp.seq;
        let payload = &frame.payload;
        match seq_cmp(seq, self.rcv_nxt) {
            std::cmp::Ordering::Equal => {
                let space = (self.config.recv_buffer as usize)
                    .saturating_sub(self.recv_buf.len())
                    .saturating_sub(self.ooo.values().map(Vec::len).sum::<usize>());
                let accept = payload.len().min(space);
                self.recv_buf.extend_from_slice(&payload[..accept]);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(accept as u32);
                self.drain_ooo();
                if accept < payload.len() {
                    // Buffer exhausted: the tail is dropped and will be
                    // retransmitted; ACK immediately with the window.
                    self.emit_ack(now);
                } else {
                    self.maybe_delayed_ack(now);
                }
            }
            std::cmp::Ordering::Greater => {
                // Out of order: buffer if space allows, dup-ACK now.
                let space = (self.config.recv_buffer as usize)
                    .saturating_sub(self.recv_buf.len())
                    .saturating_sub(self.ooo.values().map(Vec::len).sum::<usize>());
                if payload.len() <= space && !self.ooo.contains_key(&seq) {
                    self.ooo.insert(seq, payload.clone());
                    self.last_ooo_seq = Some(seq);
                }
                self.emit_dup_ack(now);
            }
            std::cmp::Ordering::Less => {
                // Wholly or partially old data (retransmission overlap).
                let overlap = seq_diff(self.rcv_nxt, seq) as usize;
                if overlap < payload.len() {
                    let fresh = &payload[overlap..];
                    let space = (self.config.recv_buffer as usize)
                        .saturating_sub(self.recv_buf.len())
                        .saturating_sub(self.ooo.values().map(Vec::len).sum::<usize>());
                    let accept = fresh.len().min(space);
                    self.recv_buf.extend_from_slice(&fresh[..accept]);
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(accept as u32);
                    self.drain_ooo();
                }
                self.emit_ack(now);
            }
        }
    }

    fn drain_ooo(&mut self) {
        while let Some((&seq, _)) = self.ooo.iter().next() {
            match seq_cmp(seq, self.rcv_nxt) {
                std::cmp::Ordering::Greater => break,
                std::cmp::Ordering::Equal => {
                    let data = self.ooo.remove(&seq).expect("key just observed");
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
                    self.recv_buf.extend_from_slice(&data);
                }
                std::cmp::Ordering::Less => {
                    // Stale overlap (filled by a retransmission): keep
                    // only the fresh tail.
                    let data = self.ooo.remove(&seq).expect("key just observed");
                    let overlap = seq_diff(self.rcv_nxt, seq) as usize;
                    if overlap < data.len() {
                        self.recv_buf.extend_from_slice(&data[overlap..]);
                        self.rcv_nxt = self.rcv_nxt.wrapping_add((data.len() - overlap) as u32);
                    }
                }
            }
        }
    }

    fn maybe_delayed_ack(&mut self, now: Micros) {
        self.segs_since_ack += 1;
        self.delack_pending = true;
        if self.segs_since_ack >= 2 {
            self.emit_ack(now);
        } else if !self.delack_timer.armed {
            let deadline = now + DELAYED_ACK;
            self.delack_timer
                .arm(deadline, &mut self.timer_requests, TimerKind::DelAck);
        }
    }

    /// The SACK blocks describing the out-of-order data currently held
    /// (RFC 2018: at most 3 when other options are present; the block
    /// containing the most recent arrival first).
    fn sack_blocks(&self) -> Vec<(u32, u32)> {
        if !self.sack_enabled || self.ooo.is_empty() {
            return Vec::new();
        }
        // Merge contiguous out-of-order segments into blocks.
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        for (&seq, data) in &self.ooo {
            let end = seq.wrapping_add(data.len() as u32);
            match blocks.last_mut() {
                Some((_, last_end)) if *last_end == seq => *last_end = end,
                _ => blocks.push((seq, end)),
            }
        }
        // Most recent block first.
        if let Some(recent) = self.last_ooo_seq {
            if let Some(pos) = blocks
                .iter()
                .position(|(s, e)| seq_diff(recent, *s) >= 0 && seq_diff(*e, recent) > 0)
            {
                let b = blocks.remove(pos);
                blocks.insert(0, b);
            }
        }
        blocks.truncate(3);
        blocks
    }

    /// A duplicate ACK repeats the last advertised window verbatim
    /// (RFC 5681: senders disqualify ACKs that change the window from
    /// dup-ACK counting, and real receivers do not fold window updates
    /// into loss signaling).
    fn emit_dup_ack(&mut self, now: Micros) {
        let window = if self.last_advertised > 0 {
            self.last_advertised
        } else {
            self.advertised_window()
        };
        let wire = self.wire_window(window);
        let mut builder = self
            .frame_builder(now)
            .seq(self.snd_nxt)
            .ack_to(self.rcv_nxt)
            .flags(TcpFlags::ACK)
            .window(wire);
        let blocks = self.sack_blocks();
        if !blocks.is_empty() {
            builder = builder.option(TcpOption::Sack(blocks));
        }
        let ack = self.with_timestamps(builder, now).build();
        self.outbox.push(ack);
        self.last_advertised = window;
        self.delack_pending = false;
        self.segs_since_ack = 0;
        self.delack_timer.cancel();
    }

    fn emit_ack(&mut self, now: Micros) {
        let window = self.advertised_window();
        let wire = self.wire_window(window);
        let mut builder = self
            .frame_builder(now)
            .seq(self.snd_nxt)
            .ack_to(self.rcv_nxt)
            .flags(TcpFlags::ACK)
            .window(wire);
        let blocks = self.sack_blocks();
        if !blocks.is_empty() {
            builder = builder.option(TcpOption::Sack(blocks));
        }
        let ack = self.with_timestamps(builder, now).build();
        self.outbox.push(ack);
        self.last_advertised = window;
        self.delack_pending = false;
        self.segs_since_ack = 0;
        self.delack_timer.cancel();
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn update_rtt(&mut self, sample_us: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_us);
                self.rttvar = sample_us / 2.0;
            }
            Some(srtt) => {
                let err = (sample_us - srtt).abs();
                self.rttvar = 0.75 * self.rttvar + 0.25 * err;
                self.srtt = Some(0.875 * srtt + 0.125 * sample_us);
            }
        }
        let srtt = self.srtt.expect("just set");
        let rto = srtt + (4.0 * self.rttvar).max(1000.0);
        self.rto = Micros((rto as i64).max(MIN_RTO.as_micros())).min(MAX_RTO);
    }

    fn current_rto(&self) -> Micros {
        let factor = self.config.rto_backoff.powi(self.backoff as i32);
        let scaled = (self.rto.as_micros() as f64 * factor) as i64;
        Micros(scaled).min(MAX_RTO).max(MIN_RTO)
    }

    fn track_zero_window(&mut self, now: Micros, window: u32) {
        if window == 0 {
            if self.zero_window_since.is_none() {
                self.zero_window_since = Some(now);
            }
        } else {
            self.close_zero_window_span(now);
        }
    }

    fn close_zero_window_span(&mut self, now: Micros) {
        if let Some(since) = self.zero_window_since.take() {
            self.stats.zero_window_spans.push(Span::new(since, now));
        }
    }

    /// What is limiting the send half right now, judged on post-event
    /// state. Between discrete events the state cannot change, so the
    /// post-event classification is exact over the inter-event span.
    fn current_limit(&self) -> Option<SendLimit> {
        if self.state != TcpState::Established {
            return None;
        }
        let avail = self.unsent_bytes();
        if avail == 0 {
            // Nothing queued. With data still in flight the transfer is
            // paced by the network, not by any local constraint; fully
            // drained and not closing, the application is the limit.
            if self.flight_size() == 0 && !self.close_pending && self.fin_seq.is_none() {
                return Some(SendLimit::App);
            }
            return None;
        }
        if self.peer_window == 0 {
            return Some(SendLimit::Rwnd);
        }
        let window = (self.cwnd as u32).min(self.peer_window);
        let usable = window as i64 - self.flight_size() as i64;
        if usable < self.mss() as i64 {
            if (self.cwnd as u32) < self.peer_window {
                return Some(SendLimit::Cwnd);
            }
            return Some(SendLimit::Rwnd);
        }
        None
    }

    /// Re-evaluates the binding send-side constraint and closes the
    /// previous ground-truth span on any transition. Called at the end
    /// of every externally driven transition (frame, timer,
    /// application call, teardown).
    fn note_limit(&mut self, now: Micros) {
        let next = self.current_limit();
        if let Some((cur, _)) = self.limit_state {
            if Some(cur) == next {
                return;
            }
        }
        if let Some((kind, since)) = self.limit_state.take() {
            self.log_limit(kind, since, now);
        }
        self.limit_state = next.map(|kind| (kind, now));
    }

    fn log_limit(&mut self, kind: SendLimit, since: Micros, now: Micros) {
        if now <= since {
            return;
        }
        let span = Span::new(since, now);
        match kind {
            SendLimit::App => self.stats.app_limited_spans.push(span),
            SendLimit::Cwnd => self.stats.cwnd_limited_spans.push(span),
            SendLimit::Rwnd => self.stats.rwnd_limited_spans.push(span),
        }
    }

    /// Closes any ground-truth span still open at `now` (end of
    /// simulation). Safe to call more than once; events arriving later
    /// simply reopen spans.
    pub fn finalize_truth(&mut self, now: Micros) {
        if let Some((kind, since)) = self.limit_state.take() {
            self.log_limit(kind, since, now);
        }
        self.close_zero_window_span(now);
    }

    /// Activates window scaling when both sides offered it (RFC 1323).
    fn negotiate_wscale(&mut self) {
        if self.config.window_scale > 0 {
            if let Some(peer) = self.peer_offered_wscale {
                self.rcv_wscale = self.config.window_scale.min(14);
                self.snd_wscale = peer.min(14);
            }
        }
    }

    /// Activates SACK when both sides offered it (RFC 2018).
    fn negotiate_sack(&mut self, peer_syn: &TcpFrame) {
        let peer_offered = peer_syn
            .tcp
            .options
            .iter()
            .any(|o| matches!(o, TcpOption::SackPermitted));
        self.sack_enabled = self.config.sack && peer_offered;
        let peer_ts = peer_syn
            .tcp
            .options
            .iter()
            .any(|o| matches!(o, TcpOption::Timestamps(..)));
        self.ts_enabled = self.config.timestamps && peer_ts;
    }

    /// Stamps an outgoing segment with `(TSval = now ms, TSecr =
    /// ts_recent)` when timestamps are negotiated.
    fn with_timestamps(&self, builder: FrameBuilder, now: Micros) -> FrameBuilder {
        if self.ts_enabled {
            builder.option(TcpOption::Timestamps(
                now.as_millis_f64() as u32,
                self.ts_recent,
            ))
        } else {
            builder
        }
    }

    /// Applies the SYN options (MSS, and window-scale when offered).
    fn with_syn_options(&self, mut builder: FrameBuilder) -> FrameBuilder {
        builder = builder.option(TcpOption::Mss(self.config.mss as u16));
        if self.config.window_scale > 0 {
            builder = builder.option(TcpOption::WindowScale(self.config.window_scale));
        }
        if self.config.sack {
            builder = builder.option(TcpOption::SackPermitted);
        }
        if self.config.timestamps {
            builder = builder.option(TcpOption::Timestamps(0, 0));
        }
        builder
    }

    /// The window value to put on the wire: the true window right-
    /// shifted by our negotiated scale (SYN segments are never scaled).
    fn wire_window(&self, window: u32) -> u16 {
        ((window >> self.rcv_wscale).min(65_535)) as u16
    }

    fn frame_builder(&mut self, now: Micros) -> FrameBuilder {
        self.ip_id = self.ip_id.wrapping_add(1);
        FrameBuilder::new(self.local.0, self.remote.0)
            .at(now)
            .ports(self.local.1, self.remote.1)
            .ip_id(self.ip_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpEndpoint, TcpEndpoint) {
        let a_addr = ("10.0.0.1".parse().unwrap(), 179);
        let b_addr = ("10.0.0.2".parse().unwrap(), 40000);
        let a = TcpEndpoint::new(a_addr, b_addr, 1000, TcpConfig::default());
        let b = TcpEndpoint::new(b_addr, a_addr, 9000, TcpConfig::default());
        (a, b)
    }

    /// Ferries outbox frames between two endpoints until both are idle.
    /// Returns all frames in flight order (zero-latency "wire").
    fn pump(a: &mut TcpEndpoint, b: &mut TcpEndpoint, now: Micros) -> Vec<TcpFrame> {
        let mut all = Vec::new();
        loop {
            let from_a = a.take_outbox();
            let from_b = b.take_outbox();
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            for f in from_a {
                b.on_frame(now, &f);
                all.push(f);
            }
            for f in from_b {
                a.on_frame(now, &f);
                all.push(f);
            }
        }
        all
    }

    fn establish(a: &mut TcpEndpoint, b: &mut TcpEndpoint) {
        b.open_passive();
        a.open_active(Micros::ZERO);
        pump(a, b, Micros::ZERO);
        assert_eq!(a.state(), TcpState::Established);
        assert_eq!(b.state(), TcpState::Established);
    }

    /// Grows `a`'s congestion window by slow start from its initial
    /// [`INITIAL_CWND_SEGMENTS`] to at least `segments` MSS: whole
    /// windows sent, delivered, acknowledged (the receiver's delayed
    /// ACK fired) and consumed.
    fn open_cwnd(a: &mut TcpEndpoint, b: &mut TcpEndpoint, segments: u32) {
        while a.cwnd() < segments * a.mss() {
            a.app_send(Micros::ZERO, &vec![0u8; a.cwnd() as usize]);
            pump(a, b, Micros::ZERO);
            for req in b.take_timer_requests() {
                b.on_timer(req.deadline, req.kind, req.epoch);
            }
            pump(a, b, Micros::ZERO);
            b.app_consume(Micros::ZERO, usize::MAX);
            pump(a, b, Micros::ZERO);
            assert_eq!(a.flight_size(), 0, "every window acknowledged");
        }
    }

    #[test]
    fn three_way_handshake() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
    }

    #[test]
    fn bulk_transfer_delivers_all_bytes_in_order() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let mut written = 0;
        let mut received = Vec::new();
        let mut now = Micros::ZERO;
        // Alternate writing, pumping, and consuming.
        while received.len() < data.len() {
            written += a.app_send(now, &data[written..]);
            pump(&mut a, &mut b, now);
            received.extend(b.app_consume(now, usize::MAX));
            now += Micros::from_millis(1);
            // Fire any delayed acks so the ACK clock keeps ticking.
            for req in b.take_timer_requests() {
                b.on_timer(req.deadline.max(now), req.kind, req.epoch);
            }
            for req in a.take_timer_requests() {
                if req.kind != TimerKind::Rto {
                    a.on_timer(req.deadline.max(now), req.kind, req.epoch);
                }
            }
            pump(&mut a, &mut b, now);
        }
        assert_eq!(received, data);
        assert_eq!(a.stats.retransmissions, 0);
    }

    #[test]
    fn slow_start_doubles_cwnd() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        let mss = a.mss();
        let initial = a.cwnd();
        a.app_send(Micros::ZERO, &vec![0u8; 100 * mss as usize]);
        let flight1 = a.take_outbox();
        assert_eq!(flight1.len() as u32, initial / mss);
        // ACK the whole flight; cwnd should grow by one MSS per ACK'd
        // segment (slow start).
        for f in &flight1 {
            let ack = FrameBuilder::new(b.local.0, b.remote.0)
                .at(Micros::from_millis(10))
                .ports(b.local.1, b.remote.1)
                .seq(b.snd_nxt)
                .ack_to(f.seq_end())
                .window(65_535)
                .build();
            a.on_frame(Micros::from_millis(10), &ack);
        }
        assert!(a.cwnd() >= initial + (flight1.len() as u32 - 1) * mss);
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit_reno() {
        let a_addr = ("10.0.0.1".parse().unwrap(), 179);
        let b_addr = ("10.0.0.2".parse().unwrap(), 40000);
        let mut a = TcpEndpoint::new(a_addr, b_addr, 1, TcpConfig::default());
        let mut b = TcpEndpoint::new(b_addr, a_addr, 2, TcpConfig::default());
        establish(&mut a, &mut b);
        open_cwnd(&mut a, &mut b, 8);
        let mss = a.mss() as usize;
        a.app_send(Micros::ZERO, &vec![7u8; 8 * mss]);
        let flight = a.take_outbox();
        assert_eq!(flight.len(), 8);
        let lost_seq = flight[1].tcp.seq;
        let now = Micros::from_millis(20);
        // Deliver the first segment, lose the second, deliver the rest:
        // each later segment triggers a dup ACK for the hole.
        b.on_frame(now, &flight[0]);
        for f in &flight[2..] {
            b.on_frame(now, f);
        }
        for ack in b.take_outbox() {
            a.on_frame(now, &ack);
        }
        assert_eq!(a.stats.fast_retransmits, 1);
        let retx: Vec<TcpFrame> = a.take_outbox();
        let retransmitted = retx.iter().find(|f| f.tcp.seq == lost_seq);
        assert!(retransmitted.is_some(), "hole must be retransmitted");
        assert!(a.in_recovery);
    }

    #[test]
    fn rto_retransmits_and_backs_off() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        a.take_timer_requests();
        a.app_send(Micros::ZERO, &vec![1u8; 5000]);
        let _lost = a.take_outbox(); // all segments lost
        let reqs = a.take_timer_requests();
        let rto_req = reqs
            .iter()
            .rev()
            .find(|r| r.kind == TimerKind::Rto)
            .unwrap();
        a.on_timer(rto_req.deadline, TimerKind::Rto, rto_req.epoch);
        assert_eq!(a.stats.timeouts, 1);
        assert_eq!(a.cwnd(), a.mss());
        let retx = a.take_outbox();
        assert_eq!(retx.len(), 1, "one segment per timeout");
        // Second timeout doubles the backoff.
        let reqs2 = a.take_timer_requests();
        let rto2 = reqs2.iter().find(|r| r.kind == TimerKind::Rto).unwrap();
        let gap1 = rto_req.deadline;
        let gap2 = rto2.deadline - rto_req.deadline;
        assert!(gap2 >= gap1, "backoff grows: {gap1} then {gap2}");
    }

    #[test]
    fn receiver_flow_control_closes_and_reopens_window() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        let cap = b.advertised_window() as usize;
        let mut now = Micros::ZERO;
        a.app_send(now, &vec![3u8; cap * 2]);
        // Pump without consuming: receiver buffer fills, window → 0.
        for _ in 0..200 {
            now += Micros::from_millis(1);
            let frames = a.take_outbox();
            if frames.is_empty() {
                break;
            }
            for f in frames {
                b.on_frame(now, &f);
            }
            for f in b.take_outbox() {
                a.on_frame(now, &f);
            }
            for req in b.take_timer_requests() {
                b.on_timer(now.max(req.deadline), req.kind, req.epoch);
            }
            for f in b.take_outbox() {
                a.on_frame(now, &f);
            }
        }
        assert_eq!(b.advertised_window(), 0);
        assert_eq!(b.readable_bytes(), cap);
        assert!(a.probing, "sender must enter persist state");
        // App consumes; window update lets the sender resume.
        let consumed = b.app_consume(now, cap);
        assert_eq!(consumed.len(), cap);
        for f in b.take_outbox() {
            a.on_frame(now, &f);
        }
        assert!(!a.probing);
        assert!(!a.take_outbox().is_empty(), "sender resumes");
        assert!(!a.stats.zero_window_spans.is_empty());
    }

    #[test]
    fn zero_window_probe_bug_creates_sequence_hole() {
        let a_addr = ("10.0.0.1".parse().unwrap(), 179);
        let b_addr = ("10.0.0.2".parse().unwrap(), 40000);
        let config = TcpConfig {
            zero_window_probe_bug: true,
            ..TcpConfig::default()
        };
        let mut a = TcpEndpoint::new(a_addr, b_addr, 1, config);
        let mut b = TcpEndpoint::new(b_addr, a_addr, 2, TcpConfig::default());
        b.open_passive();
        a.open_active(Micros::ZERO);
        pump(&mut a, &mut b, Micros::ZERO);
        let cap = b.advertised_window() as usize;
        let mut now = Micros::ZERO;
        a.app_send(now, &vec![9u8; cap * 2]);
        for _ in 0..200 {
            now += Micros::from_millis(1);
            let frames = a.take_outbox();
            for f in &frames {
                b.on_frame(now, f);
            }
            for f in b.take_outbox() {
                a.on_frame(now, &f);
            }
            for req in b.take_timer_requests() {
                b.on_timer(now.max(req.deadline), req.kind, req.epoch);
            }
            for f in b.take_outbox() {
                a.on_frame(now, &f);
            }
            if a.probing {
                break;
            }
        }
        assert!(a.probing);
        // Refill the send buffer (earlier bytes were ACKed and retired)
        // so the sender has data to run into the bug with.
        a.app_send(now, &vec![9u8; cap]);
        assert!(a.unsent_bytes() > 0);
        let snd_nxt_before = a.snd_nxt;
        // Window reopens while the probe is pending → bug fires.
        b.app_consume(now, cap);
        for f in b.take_outbox() {
            a.on_frame(now, &f);
        }
        assert_eq!(a.stats.bug_discards, 1);
        // The phantom byte was never transmitted: the receiver dup-ACKs
        // everything after it, and only a retransmission can fill the
        // hole.
        let following = a.take_outbox();
        assert!(!following.is_empty(), "sender sends data beyond the hole");
        for f in &following {
            assert!(
                seq_cmp(f.tcp.seq, snd_nxt_before) == std::cmp::Ordering::Greater,
                "hole byte is skipped"
            );
            b.on_frame(now, f);
        }
        let acks = b.take_outbox();
        assert!(acks.iter().all(|f| f.tcp.ack == snd_nxt_before));
    }

    #[test]
    fn delayed_ack_fires_on_timer_or_second_segment() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        b.take_timer_requests();
        let mss = a.mss() as usize;
        a.app_send(Micros::ZERO, &vec![5u8; mss]);
        let seg = a.take_outbox();
        b.on_frame(Micros::from_millis(1), &seg[0]);
        assert!(b.take_outbox().is_empty(), "first segment: ACK delayed");
        let reqs = b.take_timer_requests();
        let delack = reqs.iter().find(|r| r.kind == TimerKind::DelAck).unwrap();
        b.on_timer(delack.deadline, TimerKind::DelAck, delack.epoch);
        let forced = b.take_outbox();
        assert_eq!(forced.len(), 1, "timer forces the ACK");
        a.on_frame(Micros::from_millis(2), &forced[0]);
        // Two back-to-back segments force an immediate ACK.
        a.app_send(Micros::from_millis(2), &vec![5u8; 2 * mss]);
        for f in a.take_outbox() {
            b.on_frame(Micros::from_millis(3), &f);
        }
        assert_eq!(b.take_outbox().len(), 1, "every 2nd segment ACKs");
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        let mss = a.mss() as usize;
        a.app_send(Micros::ZERO, &vec![0u8; 4 * mss]);
        let mut flight = a.take_outbox();
        assert!(flight.len() >= 2);
        flight.swap(0, 1); // deliver out of order
        for f in &flight {
            b.on_frame(Micros::from_millis(1), f);
        }
        let got = b.app_consume(Micros::from_millis(2), usize::MAX);
        let expected: usize = flight.iter().map(|f| f.payload.len()).sum();
        assert_eq!(got.len(), expected);
        // The out-of-order arrival forced an immediate dup ACK.
        assert!(!b.take_outbox().is_empty());
    }

    #[test]
    fn reset_tears_down_both_ends() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        a.reset(Micros::from_secs(1));
        let rst = a.take_outbox();
        assert_eq!(rst.len(), 1);
        assert!(rst[0].tcp.flags.contains(TcpFlags::RST));
        b.on_frame(Micros::from_secs(1), &rst[0]);
        assert_eq!(a.state(), TcpState::Reset);
        assert_eq!(b.state(), TcpState::Reset);
    }

    #[test]
    fn tahoe_collapses_cwnd_on_dup_acks() {
        let a_addr = ("10.0.0.1".parse().unwrap(), 179);
        let b_addr = ("10.0.0.2".parse().unwrap(), 40000);
        let config = TcpConfig {
            flavor: TcpFlavor::Tahoe,
            ..TcpConfig::default()
        };
        let mut a = TcpEndpoint::new(a_addr, b_addr, 1, config);
        let mut b = TcpEndpoint::new(b_addr, a_addr, 2, TcpConfig::default());
        establish(&mut a, &mut b);
        open_cwnd(&mut a, &mut b, 8);
        let mss = a.mss() as usize;
        a.app_send(Micros::ZERO, &vec![0u8; 8 * mss]);
        let flight = a.take_outbox();
        let now = Micros::from_millis(5);
        for f in &flight[1..] {
            b.on_frame(now, f);
        }
        for ack in b.take_outbox() {
            a.on_frame(now, &ack);
        }
        assert_eq!(a.stats.fast_retransmits, 1);
        assert!(!a.in_recovery, "tahoe has no fast recovery");
        assert_eq!(a.cwnd(), a.mss());
    }

    #[test]
    fn graceful_close_via_fin_exchange() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        a.app_send(Micros::ZERO, &vec![1u8; 3000]);
        a.app_close(Micros::ZERO);
        // The FIN must not jump the queue: it goes out only after the
        // cwnd-limited data drains (pump ferries frames + ACKs until
        // both sides go quiet).
        let all = pump(&mut a, &mut b, Micros(10));
        let fin_pos = all
            .iter()
            .position(|f| f.tcp.flags.contains(TcpFlags::FIN) && f.src() == a.local)
            .expect("FIN emitted");
        let last_data_pos = all
            .iter()
            .rposition(|f| !f.payload.is_empty() && f.src() == a.local)
            .expect("data emitted");
        assert!(fin_pos > last_data_pos, "FIN after the data");
        assert!(a.fin_acked());
        assert_eq!(a.state(), TcpState::Closed);
        assert_eq!(b.state(), TcpState::Closed);
        // The data arrived intact before the close.
        assert_eq!(b.app_consume(Micros(50), usize::MAX).len(), 3000);
    }

    #[test]
    fn lost_fin_is_retransmitted() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        a.take_timer_requests();
        a.app_close(Micros::ZERO);
        let fin = a.take_outbox();
        assert!(fin[0].tcp.flags.contains(TcpFlags::FIN));
        // FIN lost: fire the RTO.
        let reqs = a.take_timer_requests();
        let rto = reqs
            .iter()
            .rev()
            .find(|r| r.kind == TimerKind::Rto)
            .unwrap();
        a.on_timer(rto.deadline, TimerKind::Rto, rto.epoch);
        let retx = a.take_outbox();
        assert_eq!(retx.len(), 1);
        assert!(retx[0].tcp.flags.contains(TcpFlags::FIN));
        assert_eq!(retx[0].tcp.seq, fin[0].tcp.seq);
        // Deliver; peer acknowledges; our side needs the peer FIN too.
        b.on_frame(Micros(10), &retx[0]);
        for f in b.take_outbox() {
            a.on_frame(Micros(20), &f);
        }
        assert!(a.fin_acked());
    }

    #[test]
    fn app_send_respects_buffer_cap() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        // Stop the sender from draining: remote window 0 via huge write.
        let huge = vec![0u8; 10 << 20];
        let accepted = a.app_send(Micros::ZERO, &huge);
        assert!(accepted <= 10 << 20);
        assert!(accepted as u32 <= TcpConfig::default().send_buffer + 65_535);
    }
}
