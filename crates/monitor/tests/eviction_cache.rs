//! Regression tests: LRU eviction mid-watch must finalize the
//! monitor's cached per-connection tick state and clear every alert it
//! raised for the evicted session — the cache can neither leak nor go
//! stale when `max_connections` forces connections out. And the cached
//! transfer a snapshot reports, and the report a connection finalizes
//! with, are what MCT and the batch analysis find over the connection,
//! whether or not its message log has settled.

use std::net::Ipv4Addr;

use tdat::{Analyzer, BgpDemux, Report};
use tdat_bgp::{
    find_transfer_end_ref, BgpMessage, MctConfig, PathAttribute, Prefix, TableTransfer,
    UpdateMessage,
};
use tdat_monitor::alerts::STALL_AFTER;
use tdat_monitor::{AlertAction, Monitor, MonitorConfig, MonitorEvent, SourceId, TrackerConfig};
use tdat_packet::{AnomalyCounts, FrameBuilder, TcpFlags, TcpFrame, TcpOption};
use tdat_pcap2bgp::Extraction;
use tdat_timeset::Micros;
use tdat_trace::{ConnectionTracker, Endpoint};

const CAP: usize = 4;
const SESSIONS: usize = 12;

fn config() -> MonitorConfig {
    MonitorConfig::builder()
        .window(Micros::from_secs(120))
        .interval(Micros::from_secs(5))
        .tracker(TrackerConfig {
            idle_timeout: None,
            max_connections: Some(CAP),
            ..TrackerConfig::default()
        })
        .build()
        .expect("valid config")
}

/// Handshake plus a short data burst between dedicated endpoints, then
/// silence — the session stays open (no FIN) and stalls.
fn session_frames(i: usize, t0: i64) -> Vec<TcpFrame> {
    let a = Ipv4Addr::new(10, 1, i as u8, 1);
    let b = Ipv4Addr::new(10, 1, i as u8, 2);
    let mut t = t0;
    let mut frames = vec![
        FrameBuilder::new(a, b)
            .at(Micros(t))
            .ports(179, 40000)
            .seq(0)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
        FrameBuilder::new(b, a)
            .at(Micros(t + 100))
            .ports(40000, 179)
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
    ];
    t += 1_000;
    let mut seq = 1u32;
    for _ in 0..3 {
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(seq)
                .ack_to(1)
                .payload(vec![0xab; 1448])
                .build(),
        );
        seq = seq.wrapping_add(1448);
        frames.push(
            FrameBuilder::new(b, a)
                .at(Micros(t + 500))
                .ports(40000, 179)
                .seq(1)
                .ack_to(seq)
                .window(65535)
                .build(),
        );
        t += 1_000;
    }
    frames
}

/// Drives 12 staggered stalling sessions through a cap-4 watch and
/// returns the rendered event stream.
fn run_eviction_watch() -> Vec<String> {
    // A session's stall is first checked at the tick after its burst,
    // holds `STALL_AFTER` later, and raises at the tick after that.
    assert_eq!(STALL_AFTER, Micros::from_secs(60));
    let mut monitor = Monitor::new(config());
    let id = monitor.register_source("capture");
    for i in 0..SESSIONS {
        // 45 s apart: each new session finds the tracker full and
        // LRU-evicts the oldest one, which started 180 s before and so
        // has a raised stalled-transfer alert (raised 70 s in).
        for frame in session_frames(i, i as i64 * 45_000_000) {
            monitor.ingest_from(id, &frame);
        }
        assert!(
            monitor.open_connections() <= CAP,
            "cap must hold after every ingest (open = {})",
            monitor.open_connections()
        );
    }
    monitor.advance_to(Micros::from_secs(900));

    // Mid-watch (before finish): evictions already finalized most
    // sessions, and their cached tick state must be gone — only live
    // connections may have snapshot rows.
    let finalized_mid_watch = monitor.metrics().connections_finalized();
    assert!(
        finalized_mid_watch >= (SESSIONS - CAP) as u64,
        "evictions must finalize mid-watch (finalized = {finalized_mid_watch})"
    );
    let snapshot = monitor.snapshot_reports();
    assert!(
        snapshot.len() <= CAP,
        "evicted connections left stale cache entries: {} rows",
        snapshot.len()
    );

    monitor.finish();
    assert_eq!(monitor.metrics().connections_finalized(), SESSIONS as u64);
    assert!(
        monitor.snapshot_reports().is_empty(),
        "finish must clear every cached analysis"
    );
    monitor.drain_events().iter().map(|e| e.to_json()).collect()
}

#[test]
fn eviction_mid_watch_clears_cache_and_balances_alerts() {
    let events = run_eviction_watch();

    // Re-parse the stream: every raise must be matched by a clear for
    // the same (session, kind) — an evicted session whose alert never
    // clears is exactly the leak this test pins.
    let mut raised: Vec<(&str, &str)> = Vec::new();
    let mut cleared: Vec<(&str, &str)> = Vec::new();
    let mut connections = 0usize;
    for line in &events {
        let session = field(line, "session");
        if line.contains("\"type\":\"connection\"") {
            connections += 1;
            continue;
        }
        if line.contains("\"type\":\"alert\"") {
            let kind = field(line, "kind");
            match field(line, "action") {
                "raise" => raised.push((session, kind)),
                "clear" => cleared.push((session, kind)),
                other => panic!("unknown action {other}"),
            }
        }
    }
    assert_eq!(connections, SESSIONS, "one report per session");
    assert!(
        raised.len() >= SESSIONS - CAP,
        "stalled sessions must raise before eviction ({} raises)",
        raised.len()
    );
    raised.sort_unstable();
    cleared.sort_unstable();
    assert_eq!(raised, cleared, "every raised alert needs a matching clear");
}

/// Raised-then-finalized alerts must clear even when the finalization
/// re-elects the data sender: alerts raised under the tick-cached
/// session id (early byte majority) are cleared under that same id,
/// not leaked when the final session id flips.
#[test]
fn sender_flip_between_tick_and_finalize_still_clears_alerts() {
    let x = Ipv4Addr::new(10, 9, 0, 1);
    let y = Ipv4Addr::new(10, 9, 0, 2);
    let config = MonitorConfig::builder()
        .window(Micros::from_secs(120))
        .interval(Micros::from_secs(5))
        .tracker(TrackerConfig {
            idle_timeout: None,
            ..TrackerConfig::default()
        })
        .build()
        .expect("valid config");
    let mut monitor = Monitor::new(config);
    let id = monitor.register_source("capture");

    // Mid-stream capture (no SYN): Y sends the only data early, so the
    // partial analyses the ticks cache elect Y as the sender.
    let mut seq = 1u32;
    for i in 0..3 {
        let frame = FrameBuilder::new(y, x)
            .at(Micros(i * 1_000))
            .ports(40000, 179)
            .seq(seq)
            .ack_to(1)
            .payload(vec![0xcd; 1448])
            .build();
        seq = seq.wrapping_add(1448);
        monitor.ingest_from(id, &frame);
    }
    // Silence long enough for the stalled-transfer alert to raise
    // under the Y-elected session id: checked first at the 5 s tick,
    // stalled `STALL_AFTER` later, raised at the 70 s tick.
    assert_eq!(STALL_AFTER, Micros::from_secs(60));
    monitor.advance_to(Micros::from_secs(75));
    let raised: Vec<String> = monitor
        .drain_events()
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Alert(a) if a.action == AlertAction::Raise => Some(a.session.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(raised.len(), 1, "the stall must raise: {raised:?}");
    let cached_session = raised[0].clone();
    assert!(
        cached_session.starts_with("10.9.0.2:"),
        "early byte majority elects Y: {cached_session}"
    );

    // X overtakes before the next tick boundary, then the watch ends:
    // the finalization's full analysis re-elects X as the sender.
    let mut seq = 1u32;
    for i in 0..6 {
        let frame = FrameBuilder::new(x, y)
            .at(Micros(75_000_100 + i * 100))
            .ports(179, 40000)
            .seq(seq)
            .ack_to(1)
            .payload(vec![0xef; 1448])
            .build();
        seq = seq.wrapping_add(1448);
        monitor.ingest_from(id, &frame);
    }
    monitor.finish();

    let events = monitor.drain_events();
    let final_session = events
        .iter()
        .find_map(|e| match e {
            MonitorEvent::Connection(c) => Some(c.session.clone()),
            _ => None,
        })
        .expect("a connection report");
    assert_ne!(
        final_session, cached_session,
        "test needs the sender election to flip"
    );
    let clears: Vec<&String> = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Alert(a) if a.action == AlertAction::Clear => Some(&a.session),
            _ => None,
        })
        .collect();
    assert!(
        clears.contains(&&cached_session),
        "the alert raised under the cached session must clear under it: {clears:?}"
    );
}

/// `n` fresh /24s from the `from`-th on.
fn prefixes(from: usize, n: usize) -> Vec<Prefix> {
    (from..from + n)
        .map(|i| Prefix::new(Ipv4Addr::from(0x0b00_0000 + ((i as u32) << 8)), 24).unwrap())
        .collect()
}

/// An UPDATE announcing `prefixes`, on the wire.
fn update(prefixes: Vec<Prefix>) -> Vec<u8> {
    BgpMessage::Update(UpdateMessage::announce(
        vec![PathAttribute::Med(1)],
        prefixes,
    ))
    .to_bytes()
}

fn secs(s: i64) -> i64 {
    Micros::from_secs(s).0
}

/// When the table of [`table_transfer`] ends: its last UPDATE.
const TABLE_END: i64 = 291_000;

/// A router's table transfer to a collector, 30 UPDATEs of 5 fresh
/// prefixes each in the connection's first 0.3 s, ending at
/// [`TABLE_END`]: the watch and both sides of the connection, the
/// router's numbering its bytes from `isn`.
fn table_transfer_from(isn: u32) -> (TransferWatch, Side, Side) {
    let router = Ipv4Addr::new(10, 9, 1, 1);
    let collector = Ipv4Addr::new(10, 9, 1, 2);
    let mut watch = TransferWatch::new();
    let mut from_router = Side::new(router, 179, collector, 40000, isn);
    let mut from_collector = Side::new(collector, 40000, router, 179, 0);
    watch.send(from_router.syn(0));
    watch.send(from_collector.syn(100));
    for i in 0..30 {
        watch.send(from_router.data(1_000 + i as i64 * 10_000, update(prefixes(5 * i, 5))));
    }
    (watch, from_router, from_collector)
}

/// [`table_transfer_from`] with the router's bytes numbered from 0.
fn table_transfer() -> (TransferWatch, Side, Side) {
    table_transfer_from(0)
}

/// What a snapshot reports of a connection's transfer is what MCT finds
/// over the connection as it stood at the last tick. A table transfer,
/// then ticks that see only KEEPALIVEs, then a late announcement, then
/// the other side out-sending the first between two ticks (the sender
/// flips, and its log is longer than the first side's with only
/// KEEPALIVEs past that length): pulled right after every tick, each
/// transfer equals `find_transfer_end_ref` over the snapshot a tracker
/// and demux fed the same frames hold.
#[test]
fn cached_transfer_is_mct_over_the_current_snapshot_at_every_tick() {
    let (mut watch, mut from_router, mut from_collector) = table_transfer();
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let table = watch.tick(secs(5));
    // Ticks at which the router sent a KEEPALIVE and nothing else.
    let mut quiet = Vec::new();
    for k in 1..=3 {
        watch.send(from_router.data(secs(5 * k + 1), keepalive.clone()));
        quiet.push(watch.tick(secs(5 * k + 5)));
    }
    // A late announcement, inside MCT's gap: the transfer grows.
    watch.send(from_router.data(secs(21), update(prefixes(150, 5))));
    let late = watch.tick(secs(25));
    // The collector out-sends the router: two large UPDATEs, then more
    // KEEPALIVEs than the router's log has rows.
    for i in 0..2 {
        let announced = prefixes(10_000 + 400 * i, 400);
        watch.send(from_collector.data(secs(26) + i as i64, update(announced)));
    }
    for i in 0..50 {
        watch.send(from_collector.data(secs(27) + i, keepalive.clone()));
    }
    let flipped = watch.tick(secs(30));
    watch.send(from_collector.data(secs(31), keepalive.clone()));
    let flipped_quiet = watch.tick(secs(35));

    let prefix_count =
        |check: &[(Endpoint, Option<TableTransfer>)]| check[0].1.as_ref().map(|t| t.prefix_count);
    assert_eq!(prefix_count(&table), Some(150));
    for check in &quiet {
        assert_eq!(check, &table, "KEEPALIVEs change no transfer");
    }
    assert_eq!(
        prefix_count(&late),
        Some(155),
        "the late announcement counts"
    );
    assert_eq!(flipped[0].0, from_collector.endpoint(), "the sender flips");
    assert_eq!(prefix_count(&flipped), Some(800));
    assert_eq!(flipped_quiet, flipped);
}

/// A tick runs no MCT; the pull does, and it reports the transfer as of
/// the last tick however much the connection sent since: over the
/// tick-time rows of the log of the sender elected at the tick. Pulled
/// after a new announcing UPDATE, the transfer must not count it; pulled
/// after the other side out-sent the first, it must still be MCT over
/// the first side's log.
#[test]
fn snapshot_transfer_is_mct_as_of_the_last_tick() {
    let (mut watch, mut from_router, mut from_collector) = table_transfer();
    let at_tick = watch.tick_unread(secs(5));
    // A late announcement inside MCT's gap: the transfer as it stands
    // now has grown.
    watch.send(from_router.data(secs(6), update(prefixes(150, 5))));
    assert_ne!(watch.mct_now(), at_tick, "the log moved on since the tick");
    assert_eq!(watch.snapshot(), at_tick, "pulled after a new UPDATE");
    assert_eq!(at_tick[0].1.as_ref().map(|t| t.prefix_count), Some(150));

    let at_tick = watch.tick_unread(secs(10));
    assert_eq!(at_tick[0].0, from_router.endpoint());
    // The collector out-sends the router: it is the sender now, and its
    // log holds more rows than the router's did at the tick.
    for i in 0..2 {
        let announced = prefixes(10_000 + 400 * i, 400);
        watch.send(from_collector.data(secs(11) + i as i64, update(announced)));
    }
    for i in 0..50 {
        watch.send(from_collector.data(secs(12) + i, BgpMessage::Keepalive.to_bytes()));
    }
    assert_eq!(watch.mct_now()[0].0, from_collector.endpoint());
    assert_eq!(watch.snapshot(), at_tick, "pulled after a sender flip");
    assert_eq!(at_tick[0].1.as_ref().map(|t| t.prefix_count), Some(155));
}

/// A tick builds only what its alerts read; the pull completes the rest
/// — the trace and its labels, every series, the factor vector, MCT's
/// transfer — as of the last tick however much the connection sent
/// since: over the frames the tick saw. A second watch fed exactly those
/// frames and pulled at the same tick is the reference. Pulled after a
/// new announcing UPDATE and its ACK, and after the other side out-sent
/// the first, each whole analysis must equal it field for field.
#[test]
fn snapshot_analysis_is_the_analysis_as_of_the_last_tick() {
    let (mut watch, mut from_router, mut from_collector) = table_transfer();
    watch.tick_unread(secs(5));
    let at_tick = watch.replayed_to(secs(5));
    watch.send(from_router.data(secs(6), update(prefixes(150, 5))));
    watch.send(from_collector.data(secs(6) + 300, Vec::new()));
    assert_eq!(watch.analyses(), at_tick, "pulled after a new UPDATE");

    watch.tick_unread(secs(10));
    let at_tick = watch.replayed_to(secs(10));
    for i in 0..2 {
        let announced = prefixes(10_000 + 400 * i, 400);
        watch.send(from_collector.data(secs(11) + i as i64, update(announced)));
    }
    assert_eq!(watch.mct_now()[0].0, from_collector.endpoint());
    assert_eq!(watch.analyses(), at_tick, "pulled after a sender flip");
}

/// A table, then silence past MCT's `max_gap` — which settles nothing,
/// since a demux settles by the frames it was fed and silence feeds it
/// none — then KEEPALIVEs, the first of which moves the clock past the
/// gap: the tick after it settles the router's log. Pulled after every
/// tick, before and after the settle, each transfer is MCT over the
/// connection as it stands, and the report the connection finalizes
/// with is the batch analysis of the finished connection.
#[test]
fn a_transfer_settles_after_silence_and_keepalives_change_nothing() {
    let (mut watch, mut from_router, _) = table_transfer();
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let table = watch.tick(secs(5));
    assert_eq!(watch.tick(secs(60)), table);
    assert_eq!(watch.settled(), 0, "silence moves no demux clock");
    watch.send(from_router.data(secs(61), keepalive.clone()));
    assert_eq!(watch.tick(secs(65)), table);
    assert_eq!(watch.settled(), 1);
    for k in 0..3 {
        watch.send(from_router.data(secs(70 + 10 * k), keepalive.clone()));
        assert_eq!(watch.tick(secs(75 + 10 * k)), table);
    }
    assert_eq!(watch.settled(), 1);
    watch.finish();
}

/// Churn after the settle — the table's prefixes announced again and
/// fresh ones, all past the gap, and a late retransmission of the
/// table's first segment — is counted but is no part of the transfer:
/// pulled before the next tick the transfer is the settled tick's, and
/// after it MCT over the connection as it stands.
#[test]
fn churn_after_a_settle_is_no_part_of_the_transfer() {
    let (mut watch, mut from_router, _) = table_transfer();
    let table = watch.tick(secs(5));
    watch.send(from_router.data(secs(61), BgpMessage::Keepalive.to_bytes()));
    assert_eq!(watch.tick(secs(65)), table);
    assert_eq!(watch.settled(), 1);
    watch.send(from_router.data(secs(66), update(prefixes(0, 5))));
    watch.send(from_router.data(secs(67), update(prefixes(150, 5))));
    let mut retransmitted = watch.sent[2].clone();
    retransmitted.timestamp = Micros(secs(68));
    watch.send(retransmitted);
    assert_eq!(watch.snapshot(), table, "pulled after churn");
    assert_eq!(watch.tick(secs(70)), table);
    watch.send(from_router.data(secs(71), update(prefixes(155, 5))));
    assert_eq!(watch.tick(secs(75)), table);
    watch.finish();
}

/// After the router's log settled, the collector out-sends it: the
/// sender flips to a side whose log is open, and MCT is read from that
/// log, until it settles in turn. Its UPDATEs come more than `max_gap`
/// after the session start, so MCT finds no transfer in them, settled
/// or not.
#[test]
fn a_sender_flip_after_a_settle_reads_the_new_senders_log() {
    let (mut watch, mut from_router, mut from_collector) = table_transfer();
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let table = watch.tick(secs(5));
    watch.send(from_router.data(secs(61), keepalive.clone()));
    assert_eq!(watch.tick(secs(65)), table);
    assert_eq!(watch.settled(), 1);
    for i in 0..2 {
        let announced = prefixes(10_000 + 400 * i, 400);
        watch.send(from_collector.data(secs(66) + i as i64, update(announced)));
    }
    for i in 0..50 {
        watch.send(from_collector.data(secs(67) + i, keepalive.clone()));
    }
    assert_eq!(watch.snapshot(), table, "pulled after the flip");
    let flipped = watch.tick(secs(70));
    assert_eq!(flipped[0].0, from_collector.endpoint(), "the sender flips");
    assert_eq!(flipped[0].1, None);
    assert_eq!(watch.settled(), 1, "the collector's UPDATEs are recent");
    watch.send(from_collector.data(secs(127), keepalive.clone()));
    assert_eq!(watch.tick(secs(130)), flipped);
    assert_eq!(watch.settled(), 2);
    watch.finish();
}

/// The demux clock reaches the table's end plus `max_gap` to the
/// microsecond: not past the gap, so nothing settles, and an UPDATE at
/// that instant still grows the transfer. It settles once the clock is
/// past the gap of that last UPDATE.
#[test]
fn a_transfer_resumed_just_inside_max_gap_has_not_settled() {
    let (mut watch, mut from_router, _) = table_transfer();
    let max_gap = MctConfig::default().max_gap.0;
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let table = watch.tick(secs(5));
    let resume = TABLE_END + max_gap;
    watch.send(from_router.data(resume, keepalive.clone()));
    assert_eq!(watch.tick(secs(65)), table);
    assert_eq!(watch.settled(), 0, "exactly max_gap is inside it");
    watch.send(from_router.data(resume, update(prefixes(150, 5))));
    let resumed = watch.tick(secs(70));
    assert_eq!(resumed[0].1.as_ref().map(|t| t.prefix_count), Some(155));
    assert_eq!(watch.settled(), 0);
    watch.send(from_router.data(resume + max_gap + 1, keepalive.clone()));
    assert_eq!(watch.tick(secs(125)), resumed);
    assert_eq!(watch.settled(), 1);
    watch.finish();
}

/// The router numbers its bytes from just below `u32::MAX`, so its
/// sequence numbers wrap in the middle of the table: the transfer
/// settles and finalizes as one that did not wrap.
#[test]
fn a_transfer_whose_sequence_wraps_settles_as_any_other() {
    let (mut watch, mut from_router, _) = table_transfer_from(u32::MAX - 700);
    let table = watch.tick(secs(5));
    assert_eq!(table[0].1.as_ref().map(|t| t.prefix_count), Some(150));
    watch.send(from_router.data(secs(61), BgpMessage::Keepalive.to_bytes()));
    assert_eq!(watch.tick(secs(65)), table);
    assert_eq!(watch.settled(), 1);
    watch.send(from_router.data(secs(66), update(prefixes(150, 5))));
    assert_eq!(watch.tick(secs(70)), table);
    watch.finish();
}

/// A one-connection watch beside a tracker and a demux fed the same
/// frames, which say what MCT finds over the connection as it stands.
struct TransferWatch {
    monitor: Monitor,
    id: SourceId,
    tracker: ConnectionTracker,
    demux: BgpDemux,
    /// Every frame sent, in order.
    sent: Vec<TcpFrame>,
}

impl TransferWatch {
    fn new() -> TransferWatch {
        let config = TransferWatch::config();
        let tracker = ConnectionTracker::new(config.tracker);
        let mut monitor = Monitor::new(config);
        let id = monitor.register_source("capture");
        TransferWatch {
            monitor,
            id,
            tracker,
            demux: BgpDemux::new(),
            sent: Vec::new(),
        }
    }

    fn config() -> MonitorConfig {
        MonitorConfig::builder()
            .window(Micros::from_secs(120))
            .interval(Micros::from_secs(5))
            .tracker(TrackerConfig {
                idle_timeout: None,
                ..TrackerConfig::default()
            })
            .build()
            .expect("valid config")
    }

    fn send(&mut self, frame: TcpFrame) {
        self.demux.feed(&frame);
        self.tracker.ingest(&frame);
        self.monitor.ingest_from(self.id, &frame);
        self.sent.push(frame);
    }

    /// Every analysis a snapshot pulled now holds, in full.
    fn analyses(&mut self) -> Vec<String> {
        analyses_of(&mut self.monitor)
    }

    /// What [`analyses`](Self::analyses) says of a fresh watch fed every
    /// frame sent so far and advanced to `at`.
    fn replayed_to(&self, at: i64) -> Vec<String> {
        let mut twin = Monitor::new(TransferWatch::config());
        let id = twin.register_source("capture");
        for frame in &self.sent {
            twin.ingest_from(id, frame);
        }
        twin.advance_to(Micros(at));
        analyses_of(&mut twin)
    }

    /// Runs the tick at `at`, pulls a snapshot right after it and
    /// returns each (sender, transfer) it reports, asserting it is MCT
    /// over the connection as it stands.
    fn tick(&mut self, at: i64) -> Vec<(Endpoint, Option<TableTransfer>)> {
        let expected = self.tick_unread(at);
        let reported = self.snapshot();
        assert_eq!(reported, expected, "tick at {}", Micros(at));
        reported
    }

    /// Runs the tick at `at` without pulling a snapshot and returns what
    /// MCT finds over each connection as it stands at the tick.
    fn tick_unread(&mut self, at: i64) -> Vec<(Endpoint, Option<TableTransfer>)> {
        self.monitor.advance_to(Micros(at));
        self.mct_now()
    }

    /// Each (data sender, `find_transfer_end_ref` over that sender's
    /// log) the tracker and demux beside the monitor hold now.
    fn mct_now(&self) -> Vec<(Endpoint, Option<TableTransfer>)> {
        let unseen = Extraction::default();
        self.tracker
            .snapshot()
            .into_iter()
            .map(|fin| {
                let connection = &fin.connection;
                let extraction = self
                    .demux
                    .snapshot(fin.key, connection.sender)
                    .unwrap_or(&unseen);
                let start = connection.profile.start;
                let transfer =
                    find_transfer_end_ref(start, extraction.updates_iter(), &MctConfig::default());
                (connection.sender, transfer)
            })
            .collect()
    }

    /// Message logs the watch has settled so far.
    fn settled(&self) -> u64 {
        self.monitor.metrics().transfers_settled()
    }

    /// Ends the watch, asserting that each report it finalized is byte
    /// for byte the batch analysis of the finished connection: the
    /// tracker's connection and the data sender's log, neither ever
    /// settled.
    fn finish(mut self) {
        self.monitor.finish();
        let reports: Vec<String> = self
            .monitor
            .drain_events()
            .iter()
            .filter_map(|event| match event {
                MonitorEvent::Connection(c) => Some(c.report.to_json()),
                _ => None,
            })
            .collect();
        let analyzer = Analyzer::default();
        let batch: Vec<String> = self
            .tracker
            .finish()
            .into_iter()
            .map(|fin| {
                let extraction = self.demux.take(fin.key, fin.connection.sender);
                let counts = AnomalyCounts::default();
                let analysis =
                    analyzer.analyze_extracted_lossy(fin.connection, &extraction, counts);
                Report::from_analysis(&analysis, analyzer.config()).to_json()
            })
            .collect();
        assert!(!batch.is_empty());
        assert_eq!(reports, batch);
    }

    /// Each (sender, transfer) a snapshot pulled from the monitor now
    /// reports.
    fn snapshot(&mut self) -> Vec<(Endpoint, Option<TableTransfer>)> {
        self.monitor
            .snapshot_analyses()
            .into_iter()
            .map(|(_, analysis)| (analysis.sender, analysis.transfer.clone()))
            .collect()
    }
}

fn analyses_of(monitor: &mut Monitor) -> Vec<String> {
    monitor
        .snapshot_analyses()
        .into_iter()
        .map(|(source, analysis)| format!("{source}: {analysis:?}"))
        .collect()
}

/// One direction of a TCP connection, numbering its own bytes from its
/// initial sequence number on, wrapping past `u32::MAX`.
struct Side {
    src: Ipv4Addr,
    src_port: u16,
    dst: Ipv4Addr,
    dst_port: u16,
    isn: u32,
    seq: u32,
}

impl Side {
    fn new(src: Ipv4Addr, src_port: u16, dst: Ipv4Addr, dst_port: u16, isn: u32) -> Side {
        Side {
            src,
            src_port,
            dst,
            dst_port,
            isn,
            seq: isn,
        }
    }

    fn syn(&mut self, at: i64) -> TcpFrame {
        self.seq = self.isn.wrapping_add(1);
        FrameBuilder::new(self.src, self.dst)
            .at(Micros(at))
            .ports(self.src_port, self.dst_port)
            .seq(self.isn)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build()
    }

    fn data(&mut self, at: i64, payload: Vec<u8>) -> TcpFrame {
        let frame = FrameBuilder::new(self.src, self.dst)
            .at(Micros(at))
            .ports(self.src_port, self.dst_port)
            .seq(self.seq)
            .ack_to(1)
            .payload(payload)
            .build();
        self.seq = self.seq.wrapping_add(frame.payload.len() as u32);
        frame
    }

    /// The endpoint that sends this side's bytes.
    fn endpoint(&self) -> Endpoint {
        (self.src, self.src_port)
    }
}

/// Pulls a `"key":"value"` string field out of a JSONL line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":\"");
    let Some(start) = line.find(&tag).map(|i| i + tag.len()) else {
        return "";
    };
    let rest = &line[start..];
    let end = rest.find('"').unwrap_or(rest.len());
    &rest[..end]
}
