//! The BGP processes riding on top of the simulated TCP endpoints.
//!
//! * [`BgpSenderApp`] — an operational router announcing its full table:
//!   writes OPEN then the update stream into the socket, optionally
//!   paced by the undocumented *quota timer* (§II-B1) and/or gated by a
//!   [`PeerGroup`] (§II-B3); emits keepalives while blocked; enforces
//!   the hold timer.
//! * [`BgpReceiverApp`] — the collector: consumes the socket at a
//!   configurable processing rate, frames BGP messages, and keeps them
//!   with their consumption times in a [`MessageArchive`] (the
//!   Quagga/MRT archive equivalent), as bytes decoded only when read.
//! * [`PeerGroup`] — the replication queue shared by all sessions of a
//!   peer group: updates are released to members in lockstep and a
//!   common block is cleared only once *every* member has delivered it,
//!   so the whole group is dragged down by its slowest member.

use tdat_bgp::{skim_message, BgpMessage, OpenMessage, Skim};
use tdat_timeset::{Micros, Span};

use crate::config::{BgpReceiverConfig, BgpSenderConfig};
use crate::tcp::TcpEndpoint;

/// The replication window a peer group releases ahead of the
/// slowest-acknowledged byte.
pub const GROUP_WINDOW_BYTES: usize = 16 * 1024;

/// A BGP peer group: one update queue replicated to several TCP
/// connections.
#[derive(Debug, Default)]
pub struct PeerGroup {
    stream_len: usize,
    /// `(member id, delivered bytes)`; removed members drop out.
    members: Vec<(usize, usize)>,
    /// Spans during which at least one member blocked the others (for
    /// ground truth).
    pub blocking_spans: Vec<Span>,
    block_started: Option<Micros>,
}

impl PeerGroup {
    /// Creates a group replicating a stream of `stream_len` update
    /// bytes.
    pub fn new(stream_len: usize) -> PeerGroup {
        PeerGroup {
            stream_len,
            ..PeerGroup::default()
        }
    }

    /// Registers a member connection.
    pub fn add_member(&mut self, member: usize) {
        self.members.push((member, 0));
    }

    /// Removes a failed/closed member; the group resumes at the pace of
    /// the remaining members.
    pub fn remove_member(&mut self, member: usize, now: Micros) {
        self.members.retain(|(m, _)| *m != member);
        self.note_block_state(now);
    }

    /// Reports that `member` has delivered (had acknowledged) the first
    /// `delivered` bytes of the common stream.
    pub fn report_delivered(&mut self, member: usize, delivered: usize, now: Micros) {
        if let Some(entry) = self.members.iter_mut().find(|(m, _)| *m == member) {
            entry.1 = entry.1.max(delivered.min(self.stream_len));
        }
        self.note_block_state(now);
    }

    /// Bytes of the common stream currently released for writing: the
    /// slowest member's delivered point plus one replication window.
    pub fn released(&self) -> usize {
        let slowest = self
            .members
            .iter()
            .map(|(_, d)| *d)
            .min()
            .unwrap_or(self.stream_len);
        (slowest + GROUP_WINDOW_BYTES).min(self.stream_len)
    }

    /// True if the fastest member has (nearly — within one message of)
    /// exhausted the released window while stream bytes remain: the
    /// group is effectively blocked on its slowest member.
    pub fn is_blocked(&self) -> bool {
        let Some(max) = self.members.iter().map(|(_, d)| *d).max() else {
            return false;
        };
        let released = self.released();
        released < self.stream_len && max + 4096 >= released
    }

    fn note_block_state(&mut self, now: Micros) {
        match (self.is_blocked(), self.block_started) {
            (true, None) => self.block_started = Some(now),
            (false, Some(start)) => {
                self.blocking_spans.push(Span::new(start, now));
                self.block_started = None;
            }
            _ => {}
        }
    }
}

/// Ground truth the sender app records for analyzer validation.
#[derive(Debug, Clone, Default)]
pub struct SenderAppStats {
    /// Periods during which the app had released data but deliberately
    /// withheld it (quota timer waiting / peer group blocked).
    pub withheld_spans: Vec<Span>,
    /// Keepalives written.
    pub keepalives: u64,
    /// True once the entire update stream has been written to the
    /// socket.
    pub finished_writing: bool,
    /// When the last update byte was written.
    pub finished_at: Option<Micros>,
}

/// The sending BGP process for one session.
#[derive(Debug)]
pub struct BgpSenderApp {
    config: BgpSenderConfig,
    /// The update stream (the serialized table transfer).
    stream: Vec<u8>,
    /// Update-stream bytes written into the socket so far.
    written: usize,
    /// OPEN + keepalive bytes written (non-stream bytes), used to map
    /// socket-level ACK counts back to stream offsets.
    non_stream_written: usize,
    /// Peer-group membership: index into the simulation's group table.
    pub group: Option<usize>,
    /// Member id within the group (the connection id).
    pub member_id: usize,
    /// Time a message was last received from the peer (hold timer).
    pub last_peer_message: Micros,
    started: bool,
    withheld_since: Option<Micros>,
    /// End offsets of whole BGP messages within `stream`, so writes can
    /// be floored to message boundaries (routers hand TCP whole
    /// messages; a quota or group window never splits one).
    boundaries: Vec<usize>,
    /// Length of the parseable prefix of `stream`; beyond it no
    /// boundary clamping is applied.
    parseable_end: usize,
    /// Ground truth.
    pub stats: SenderAppStats,
}

impl BgpSenderApp {
    /// Creates the app for a session that will transfer `stream`.
    pub fn new(
        config: BgpSenderConfig,
        stream: Vec<u8>,
        member_id: usize,
        group: Option<usize>,
    ) -> BgpSenderApp {
        // Scan message boundaries: each BGP message carries its length
        // at offset 16. Stop at the first implausible header.
        let mut boundaries = Vec::new();
        let mut i = 0usize;
        while i + 19 <= stream.len() {
            let len = u16::from_be_bytes([stream[i + 16], stream[i + 17]]) as usize;
            if !(19..=4096).contains(&len) || i + len > stream.len() {
                break;
            }
            i += len;
            boundaries.push(i);
        }
        let parseable_end = i;
        BgpSenderApp {
            config,
            stream,
            boundaries,
            parseable_end,
            written: 0,
            non_stream_written: 0,
            group,
            member_id,
            last_peer_message: Micros::ZERO,
            started: false,
            withheld_since: None,
            stats: SenderAppStats::default(),
        }
    }

    /// Configuration access.
    pub fn config(&self) -> &BgpSenderConfig {
        &self.config
    }

    /// Total length of the update stream.
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// Update bytes written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Update-stream bytes the peer has acknowledged, estimated from
    /// socket-level ACK accounting (non-stream bytes — OPEN and
    /// keepalives — are subtracted).
    pub fn delivered(&self, tcp: &TcpEndpoint) -> usize {
        (tcp.stats.bytes_acked as usize)
            .saturating_sub(self.non_stream_written)
            .min(self.written)
    }

    /// Called once when the session reaches Established: writes the
    /// OPEN message.
    pub fn on_established(&mut self, now: Micros, tcp: &mut TcpEndpoint) {
        if self.started {
            return;
        }
        self.started = true;
        self.last_peer_message = now;
        let open = BgpMessage::Open(OpenMessage::new(
            65_001,
            (self.config.hold_time.as_micros() / 1_000_000) as u16,
            tcp.local.0,
        ));
        let bytes = open.to_bytes();
        let accepted = tcp.app_send(now, &bytes);
        self.non_stream_written += accepted;
    }

    /// Writes as much of the released stream as the socket accepts.
    /// `release_limit` is the group-released byte count
    /// ([`PeerGroup::released`]) or `usize::MAX` without a group;
    /// `quota` bounds this single write (quota-timer mode).
    ///
    /// Returns the number of stream bytes written.
    pub fn feed(
        &mut self,
        now: Micros,
        tcp: &mut TcpEndpoint,
        release_limit: usize,
        quota: usize,
    ) -> usize {
        if !self.started || self.stats.finished_writing {
            return 0;
        }
        let limit = release_limit.min(self.stream.len());
        let cap = limit.min(self.written.saturating_add(quota));
        // Never split a message across a quota tick or group release:
        // floor the write target to a message boundary.
        let target = self.floor_to_boundary(cap);
        let want = target.saturating_sub(self.written);
        let wrote = if want > 0 {
            tcp.app_send(now, &self.stream[self.written..self.written + want])
        } else {
            0
        };
        self.written += wrote;
        // Track withheld periods: data exists beyond the release limit
        // but the app is not writing it. Writing anything closes the
        // current withheld span; being (still) pinned at the release
        // limit opens a new one.
        if wrote > 0 {
            if let Some(start) = self.withheld_since.take() {
                self.stats.withheld_spans.push(Span::new(start, now));
            }
        }
        // App-limited ground truth: unwritten data remains although the
        // socket could take (at least a message of) it — the quota
        // timer, the peer group, or the boundary floor is the limiter.
        let blocked =
            self.written < self.stream.len() && wrote == want && tcp.send_buffer_space() >= 4096;
        match (blocked, self.withheld_since) {
            (true, None) => self.withheld_since = Some(now),
            (false, Some(start)) => {
                self.stats.withheld_spans.push(Span::new(start, now));
                self.withheld_since = None;
            }
            _ => {}
        }
        if self.written >= self.stream.len() {
            self.stats.finished_writing = true;
            self.stats.finished_at = Some(now);
        }
        wrote
    }

    /// True if the app cannot make progress under the given release
    /// limit: everything writable up to the limit (floored to a message
    /// boundary) has been written, but stream bytes remain.
    pub fn is_release_blocked(&self, release_limit: usize) -> bool {
        if self.stats.finished_writing {
            return false;
        }
        let limit = release_limit.min(self.stream.len());
        self.floor_to_boundary(limit) <= self.written
    }

    /// The largest message boundary at or below `cap` (identity beyond
    /// the parseable prefix of the stream).
    fn floor_to_boundary(&self, cap: usize) -> usize {
        if cap >= self.parseable_end {
            return cap;
        }
        match self.boundaries.binary_search(&cap) {
            Ok(_) => cap,
            Err(0) => 0,
            Err(idx) => self.boundaries[idx - 1],
        }
    }

    /// Emits a keepalive if the transfer is currently idle (group
    /// blocked or finished); BGP keeps the session alive during pauses
    /// (Fig. 9: only keepalives flow while the group is blocked).
    pub fn keepalive(&mut self, now: Micros, tcp: &mut TcpEndpoint, transfer_blocked: bool) {
        if !self.started {
            return;
        }
        if transfer_blocked || self.stats.finished_writing {
            let bytes = BgpMessage::Keepalive.to_bytes();
            let accepted = tcp.app_send(now, &bytes);
            self.non_stream_written += accepted;
            if accepted > 0 {
                self.stats.keepalives += 1;
            }
        }
    }

    /// True if the hold timer has expired.
    pub fn hold_expired(&self, now: Micros) -> bool {
        self.started && now - self.last_peer_message > self.config.hold_time
    }
}

/// What the collector keeps of the messages it consumed: their bytes
/// back to back, each with its consumption time. A message is framed
/// and validated by the skim's rules ([`skim_message`]) as its last byte
/// is consumed; they accept exactly what [`BgpMessage::decode`] accepts,
/// so every kept message decodes, and it is decoded only when read
/// ([`iter`](Self::iter)). Until then a message costs its wire bytes
/// and an 8-byte time; its length is its header's.
#[derive(Debug, Default)]
pub struct MessageArchive {
    /// The kept messages' bytes, then those of a message not yet whole.
    bytes: Vec<u8>,
    /// Where the kept messages end in `bytes`.
    kept: usize,
    /// Each kept message's consumption time, in order.
    times: Vec<Micros>,
}

impl MessageArchive {
    /// Messages kept.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no message has been kept.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// When the last kept message was consumed.
    pub fn last_time(&self) -> Option<Micros> {
        self.times.last().copied()
    }

    /// The kept messages in order with their consumption times, each
    /// decoded as it is read.
    pub fn iter(&self) -> impl Iterator<Item = (Micros, BgpMessage)> + '_ {
        let mut rest = &self.bytes[..self.kept];
        self.times.iter().map(move |&time| {
            let message = BgpMessage::decode(&mut rest)
                .ok()
                .flatten()
                .expect("the skim kept only whole messages that decode");
            (time, message)
        })
    }

    /// Keeps every whole message the bytes past the kept ones hold,
    /// stamped `time`, and returns how many. A message the skim rejects
    /// drops every byte past the kept ones: resynchronizing is hopeless
    /// in BGP (the session would reset).
    fn frame(&mut self, time: Micros) -> usize {
        let before = self.times.len();
        loop {
            match skim_message(&self.bytes[self.kept..], |_, _| ()) {
                Skim::Whole(message) => {
                    self.kept += message.len;
                    self.times.push(time);
                }
                Skim::Partial => break,
                Skim::Rejected => {
                    self.bytes.truncate(self.kept);
                    break;
                }
            }
        }
        self.times.len() - before
    }
}

/// The receiving BGP process (collector side) for one session.
#[derive(Debug)]
pub struct BgpReceiverApp {
    config: BgpReceiverConfig,
    /// The archive: every message consumed, with its consumption time,
    /// and the bytes of one not yet whole.
    pub archive: MessageArchive,
    /// Time a message was last received (hold timer).
    pub last_peer_message: Micros,
    /// While true the app stops draining (processing stall injection).
    pub paused: bool,
    started: bool,
}

impl BgpReceiverApp {
    /// Creates the collector app.
    pub fn new(config: BgpReceiverConfig) -> BgpReceiverApp {
        BgpReceiverApp {
            config,
            archive: MessageArchive::default(),
            last_peer_message: Micros::ZERO,
            paused: false,
            started: false,
        }
    }

    /// Configuration access.
    pub fn config(&self) -> &BgpReceiverConfig {
        &self.config
    }

    /// Called once at Established: sends OPEN and the first keepalive.
    pub fn on_established(&mut self, now: Micros, tcp: &mut TcpEndpoint) {
        if self.started {
            return;
        }
        self.started = true;
        self.last_peer_message = now;
        let open = BgpMessage::Open(OpenMessage::new(
            65_535,
            (self.config.hold_time.as_micros() / 1_000_000) as u16,
            tcp.local.0,
        ));
        tcp.app_send(now, &open.to_bytes());
        tcp.app_send(now, &BgpMessage::Keepalive.to_bytes());
    }

    /// Consumes up to `chunk` bytes from the socket into the archive,
    /// keeping the messages they complete. Returns bytes consumed.
    pub fn drain(&mut self, now: Micros, tcp: &mut TcpEndpoint, chunk: usize) -> usize {
        if self.paused {
            return 0;
        }
        let n = tcp.app_consume(now, chunk, &mut self.archive.bytes);
        if n > 0 && self.archive.frame(now) > 0 {
            self.last_peer_message = now;
        }
        n
    }

    /// Emits a keepalive toward the sender.
    pub fn keepalive(&mut self, now: Micros, tcp: &mut TcpEndpoint) {
        if self.started {
            tcp.app_send(now, &BgpMessage::Keepalive.to_bytes());
        }
    }

    /// True if the hold timer has expired.
    pub fn hold_expired(&self, now: Micros) -> bool {
        self.started && now - self.last_peer_message > self.config.hold_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcpConfig;
    use crate::tcp::TcpState;

    fn established_pair() -> (TcpEndpoint, TcpEndpoint) {
        let a_addr = ("10.0.0.1".parse().unwrap(), 179);
        let b_addr = ("10.0.0.2".parse().unwrap(), 40000);
        let mut a = TcpEndpoint::new(a_addr, b_addr, 1, TcpConfig::default());
        let mut b = TcpEndpoint::new(b_addr, a_addr, 2, TcpConfig::default());
        b.open_passive();
        a.open_active(Micros::ZERO);
        loop {
            let fa = a.take_outbox();
            let fb = b.take_outbox();
            if fa.is_empty() && fb.is_empty() {
                break;
            }
            for f in fa {
                b.on_frame(Micros::ZERO, &f);
            }
            for f in fb {
                a.on_frame(Micros::ZERO, &f);
            }
        }
        assert_eq!(a.state(), TcpState::Established);
        (a, b)
    }

    #[test]
    fn peer_group_lockstep() {
        let mut g = PeerGroup::new(100_000);
        g.add_member(0);
        g.add_member(1);
        assert_eq!(g.released(), GROUP_WINDOW_BYTES);
        g.report_delivered(0, 50_000, Micros::ZERO);
        // Slowest member (1, at 0) pins the release point.
        assert_eq!(g.released(), GROUP_WINDOW_BYTES);
        assert!(g.is_blocked());
        g.report_delivered(1, 50_000, Micros::from_secs(1));
        assert_eq!(g.released(), 50_000 + GROUP_WINDOW_BYTES);
        assert!(!g.is_blocked());
        assert_eq!(g.blocking_spans.len(), 1);
        assert_eq!(
            g.blocking_spans[0],
            Span::new(Micros::ZERO, Micros::from_secs(1))
        );
    }

    #[test]
    fn removing_failed_member_unblocks_group() {
        let mut g = PeerGroup::new(100_000);
        g.add_member(0);
        g.add_member(1);
        g.report_delivered(0, 99_000, Micros::ZERO);
        assert!(g.is_blocked());
        g.remove_member(1, Micros::from_secs(180));
        assert!(!g.is_blocked());
        assert_eq!(g.released(), 100_000);
        assert_eq!(g.blocking_spans.len(), 1);
    }

    #[test]
    fn sender_app_writes_open_then_stream() {
        let (mut tcp, _peer) = established_pair();
        let stream = vec![0xaa; 10_000];
        let mut app = BgpSenderApp::new(BgpSenderConfig::default(), stream, 0, None);
        app.on_established(Micros::ZERO, &mut tcp);
        let frames = tcp.take_outbox();
        // The OPEN rides in the first data segment.
        assert!(!frames.is_empty());
        assert_eq!(&frames[0].payload[..16], &[0xff; 16]);
        let wrote = app.feed(Micros::ZERO, &mut tcp, usize::MAX, usize::MAX);
        assert!(wrote > 0);
        assert_eq!(app.written(), wrote);
    }

    #[test]
    fn quota_bounds_each_feed_at_message_boundaries() {
        let (mut tcp, _peer) = established_pair();
        let stream = tdat_bgp::TableGenerator::new(5)
            .routes(2000)
            .generate()
            .to_update_stream();
        let mut app = BgpSenderApp::new(BgpSenderConfig::default(), stream.clone(), 0, None);
        app.on_established(Micros::ZERO, &mut tcp);
        let mut boundaries = vec![];
        let mut i = 0;
        while i + 19 <= stream.len() {
            i += u16::from_be_bytes([stream[i + 16], stream[i + 17]]) as usize;
            boundaries.push(i);
        }
        for step in 0..3 {
            let wrote = app.feed(Micros::from_millis(200 * step), &mut tcp, usize::MAX, 4096);
            assert!(wrote > 0 && wrote <= 4096, "wrote {wrote}");
            assert!(
                boundaries.contains(&app.written()),
                "write position {} must be a message boundary",
                app.written()
            );
        }
    }

    #[test]
    fn group_release_limit_blocks_and_records_withheld_span() {
        let (mut tcp, _peer) = established_pair();
        let stream = tdat_bgp::TableGenerator::new(6)
            .routes(2000)
            .generate()
            .to_update_stream();
        let mut app = BgpSenderApp::new(BgpSenderConfig::default(), stream, 0, Some(0));
        app.on_established(Micros::ZERO, &mut tcp);
        let wrote = app.feed(Micros::ZERO, &mut tcp, 8_000, usize::MAX);
        assert!(wrote > 4_000 && wrote <= 8_000, "wrote {wrote}");
        // Blocked at the release limit: a withheld span opens.
        app.feed(Micros::from_millis(10), &mut tcp, 8_000, usize::MAX);
        assert!(app.withheld_since.is_some());
        // Release more: the span (opened at t=0 when the app first hit
        // the limit) closes at the write.
        let wrote = app.feed(Micros::from_millis(500), &mut tcp, 20_000, usize::MAX);
        assert!(wrote > 0);
        assert_eq!(app.stats.withheld_spans.len(), 1);
        assert_eq!(
            app.stats.withheld_spans[0].duration(),
            Micros::from_millis(500)
        );
    }

    #[test]
    fn keepalives_only_when_blocked_or_done() {
        let (mut tcp, _peer) = established_pair();
        let mut app = BgpSenderApp::new(BgpSenderConfig::default(), vec![1; 10_000], 0, None);
        app.on_established(Micros::ZERO, &mut tcp);
        app.keepalive(Micros::from_secs(60), &mut tcp, false);
        assert_eq!(app.stats.keepalives, 0, "active transfer: no keepalive");
        app.keepalive(Micros::from_secs(60), &mut tcp, true);
        assert_eq!(app.stats.keepalives, 1, "blocked: keepalive flows");
    }

    #[test]
    fn hold_timer_expiry() {
        let (mut tcp, _peer) = established_pair();
        let mut app = BgpSenderApp::new(BgpSenderConfig::default(), vec![], 0, None);
        app.on_established(Micros::ZERO, &mut tcp);
        assert!(!app.hold_expired(Micros::from_secs(179)));
        assert!(app.hold_expired(Micros::from_secs(181)));
    }

    #[test]
    fn receiver_app_reassembles_messages_across_chunks() {
        let (mut sender_tcp, mut recv_tcp) = established_pair();
        let mut rx = BgpReceiverApp::new(BgpReceiverConfig::default());
        rx.on_established(Micros::ZERO, &mut recv_tcp);
        // Sender transmits OPEN + KEEPALIVE + an update stream.
        let table = tdat_bgp::TableGenerator::new(1).routes(50).generate();
        let mut payload = BgpMessage::Open(OpenMessage::new(1, 180, sender_tcp.local.0)).to_bytes();
        payload.extend_from_slice(&BgpMessage::Keepalive.to_bytes());
        payload.extend_from_slice(&table.to_update_stream());
        sender_tcp.app_send(Micros::ZERO, &payload);
        // Ferry everything.
        loop {
            let fa = sender_tcp.take_outbox();
            let fb = recv_tcp.take_outbox();
            if fa.is_empty() && fb.is_empty() {
                break;
            }
            for f in fa {
                recv_tcp.on_frame(Micros::ZERO, &f);
            }
            for f in fb {
                sender_tcp.on_frame(Micros::ZERO, &f);
            }
        }
        // Drain in odd-sized chunks to exercise reassembly.
        let mut t = Micros::ZERO;
        while recv_tcp.readable_bytes() > 0 {
            t += Micros::from_millis(1);
            rx.drain(t, &mut recv_tcp, 777);
        }
        let updates = rx
            .archive
            .iter()
            .filter(|(_, m)| matches!(m, BgpMessage::Update(_)))
            .count();
        let announced: usize = rx
            .archive
            .iter()
            .filter_map(|(_, m)| match m {
                BgpMessage::Update(u) => Some(u.announced.len()),
                _ => None,
            })
            .sum();
        assert!(updates > 0);
        assert_eq!(announced, 50);
        assert!(rx
            .archive
            .iter()
            .any(|(_, m)| matches!(m, BgpMessage::Open(_))));
    }

    #[test]
    fn paused_receiver_does_not_drain() {
        let (_s, mut recv_tcp) = established_pair();
        let mut rx = BgpReceiverApp::new(BgpReceiverConfig::default());
        rx.paused = true;
        assert_eq!(rx.drain(Micros::ZERO, &mut recv_tcp, 1000), 0);
    }
}
