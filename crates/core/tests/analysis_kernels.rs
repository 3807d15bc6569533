//! The analysis kernels against the implementations they replaced.
//!
//! Building a connection, labelling, ACK shifting and flight grouping
//! read a connection in place: no kernel copies the trace, ACK shifting
//! reorders the connection's own segments, and a flight is an index
//! range. Each is held here to the implementation it replaced, kept
//! verbatim as the reference (only renamed, and `Flight` spelled with
//! its member list). The connection builder's reference reads the
//! tracker's former 56-byte per-frame record, kept here too: both
//! endpoints, `seq_end` and the options in every frame, where the
//! tracker now keeps 32 bytes, a direction bit and the few frames'
//! options beside them. On generated connections — holes, reordering,
//! retransmissions of seen and of acknowledged data, window probes,
//! zero windows, clocks that step back, sequence numbers that wrap past
//! 2 GiB of transfer, FINs with and without payload from either side,
//! RSTs, a SYN sent again, MSS and window-scale options mid-stream in
//! both directions, with and without a captured handshake — every
//! output must be equal, and so must the tracker's
//! `snapshot_first(key, n)` and the reference over the first `n`
//! frames, for every `n`. And a live view's series must be the whole
//! analysis's, series for series. A set of series frozen into its one
//! allocation must read back, through each slot's accessor, exactly the
//! events it was built from, and the loss series that interpretation
//! copies must equal their sources under every sniffer location. CI
//! runs this file with `PROPTEST_CASES=20000`.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use std::collections::HashMap;
use tdat::preprocess::{shift_acks, FlightShift, ShiftedTrace};
use tdat::{Analyzer, AnalyzerConfig, SeriesBuilder, SeriesSet, Slot, SnifferLocation};

use tdat_packet::{
    seq_diff, AnomalyCounts, FrameBuilder, FrameLike, TcpFlags, TcpFrame, TcpOption,
};
use tdat_pcap2bgp::Extraction;
use tdat_timeset::{Micros, SeriesView, Span};
use tdat_trace::{
    default_flight_gap, extract_connections, group_flights, label_segments, ConnKey, ConnProfile,
    ConnectionTracker, Direction, Endpoint, LabelConfig, SegLabel, Segment, TcpConnection,
    TrackerConfig,
};

/// One generated step of a connection: what kind of segment, and three
/// free parameters it reads as it needs.
type Step = (u8, u32, u32, u8);

/// How many kinds of step [`frames_of`] tells apart.
const KINDS: u8 = 20;

/// A connection between a router (179) and a collector: an optional
/// handshake (with or without window scaling), then `steps`.
/// `wrapping` makes fresh data jump ahead by up to 2^30 bytes, so a
/// few dozen segments carry the sequence space past 2^31 from the
/// first.
fn frames_of(handshake: u8, wrapping: bool, isn: u32, steps: &[Step]) -> Vec<TcpFrame> {
    let router = Ipv4Addr::new(10, 0, 0, 1);
    let collector = Ipv4Addr::new(10, 0, 0, 2);
    let data = |t: i64, seq: u32, ack: u32, len: usize| {
        FrameBuilder::new(router, collector)
            .at(Micros(t))
            .ports(179, 40_000)
            .seq(seq)
            .ack_to(ack)
            .payload(vec![0; len])
            .build()
    };
    let ack = |t: i64, ackn: u32, window: u16, flags: TcpFlags| {
        FrameBuilder::new(collector, router)
            .at(Micros(t))
            .ports(40_000, 179)
            .seq(1)
            .ack_to(ackn)
            .window(window)
            .flags(flags)
            .build()
    };
    let mut frames = Vec::new();
    let mut t = 1_000i64;
    if handshake > 0 {
        let mut syn = FrameBuilder::new(router, collector)
            .at(Micros(t))
            .ports(179, 40_000)
            .seq(isn.wrapping_sub(1))
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1448))
            .window(65_535);
        let mut syn_ack = FrameBuilder::new(collector, router)
            .at(Micros(t + 150))
            .ports(40_000, 179)
            .seq(0)
            .ack_to(isn)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Mss(1448))
            .window(65_535);
        if handshake > 1 {
            syn = syn.option(TcpOption::WindowScale(2));
            syn_ack = syn_ack.option(TcpOption::WindowScale(3));
        }
        frames.push(syn.build());
        frames.push(syn_ack.build());
        // An RTT of 150 or 300 ms: a quarter of it outweighs the
        // idle-gap floor.
        t += i64::from(handshake) * 150_000;
        frames.push(
            FrameBuilder::new(router, collector)
                .at(Micros(t))
                .ports(179, 40_000)
                .seq(isn)
                .ack_to(1)
                .window(65_535)
                .build(),
        );
    }
    // An MSS, a window scale or both, their values drawn from `a` and
    // `c`.
    let options = |frame: FrameBuilder, a: u32, c: u8| {
        let mss = TcpOption::Mss(536 + (a % 1_000) as u16);
        let wscale = TcpOption::WindowScale(c % 15);
        match c % 3 {
            0 => frame.option(mss),
            1 => frame.option(wscale),
            _ => frame.option(mss).option(wscale),
        }
    };
    let mut next = isn; // next fresh sequence number
    let mut acked = isn;
    for &(kind, a, b, c) in steps {
        t += i64::from(b % 40_000);
        match kind % KINDS {
            // Fresh data, now and then jumping ahead (a hole, or the
            // sequence space racing towards its wrap).
            0..=4 => {
                let len = 1 + (a % 1_448) as usize;
                if kind % KINDS == 4 {
                    next = next.wrapping_add(a % 3_000);
                }
                if wrapping && c % 4 == 0 {
                    next = next.wrapping_add(1 << 29 | (a & 0x3fff_ffff));
                }
                frames.push(data(t, next, 1, len));
                next = next.wrapping_add(len as u32);
            }
            // A re-send of something already sent.
            5 => {
                let back = a % (seq_diff(next, isn).max(1) as u32);
                let len = 1 + (b % 1_448) as usize;
                frames.push(data(t, next.wrapping_sub(back.max(1)), 1, len));
            }
            // A one-byte probe of the next byte.
            6 => frames.push(data(t, next, 1, 1)),
            // An ACK somewhere between what was acknowledged and what
            // was sent, its window large, small, zero or arbitrary.
            7..=9 => {
                let span = seq_diff(next, acked).max(0) as u32;
                let to = acked.wrapping_add(if span == 0 { 0 } else { a % (span + 1) });
                if seq_diff(to, acked) > 0 {
                    acked = to;
                }
                let window = match c % 4 {
                    0 => 0,
                    1 => 2_000,
                    2 => 65_535,
                    _ => (b & 0xffff) as u16,
                };
                frames.push(ack(t, to, window, TcpFlags::ACK));
            }
            // A duplicate of the last ACK.
            10 => frames.push(ack(t, acked, 65_535, TcpFlags::ACK)),
            // The collector's own bytes, acknowledging: not a pure ACK.
            11 => frames.push(
                FrameBuilder::new(collector, router)
                    .at(Micros(t))
                    .ports(40_000, 179)
                    .seq(1)
                    .ack_to(acked)
                    .window(65_535)
                    .payload(vec![0; 19])
                    .build(),
            ),
            // A collector segment without the ACK flag, its ACK field
            // ahead of anything acknowledged.
            12 => frames.push(ack(t, next, 65_535, TcpFlags::PSH)),
            // The clock steps back.
            13 => {
                t -= i64::from(a % 5_000);
                frames.push(data(t, next, 1, 100));
                next = next.wrapping_add(100);
            }
            // The router's FIN, now and then with payload.
            14 => {
                let len = if c % 2 == 0 { 0 } else { 1 + a % 1_448 };
                frames.push(
                    FrameBuilder::new(router, collector)
                        .at(Micros(t))
                        .ports(179, 40_000)
                        .seq(next)
                        .ack_to(1)
                        .flags(TcpFlags::FIN | TcpFlags::ACK)
                        .payload(vec![0; len as usize])
                        .build(),
                );
                next = next.wrapping_add(len + 1);
            }
            // The collector's FIN, now and then with bytes of its own.
            15 => frames.push(
                FrameBuilder::new(collector, router)
                    .at(Micros(t))
                    .ports(40_000, 179)
                    .seq(1)
                    .ack_to(acked)
                    .window(65_535)
                    .flags(TcpFlags::FIN | TcpFlags::ACK)
                    .payload(vec![0; if c % 2 == 0 { 0 } else { 19 }])
                    .build(),
            ),
            // A RST from either side.
            16 => frames.push(if c % 2 == 0 {
                FrameBuilder::new(router, collector)
                    .at(Micros(t))
                    .ports(179, 40_000)
                    .seq(next)
                    .flags(TcpFlags::RST)
                    .build()
            } else {
                ack(t, acked, 0, TcpFlags::RST | TcpFlags::ACK)
            }),
            // The router's SYN once more, its options as drawn.
            17 => frames.push(
                options(
                    FrameBuilder::new(router, collector)
                        .at(Micros(t))
                        .ports(179, 40_000)
                        .seq(isn.wrapping_sub(1))
                        .flags(TcpFlags::SYN)
                        .window(65_535),
                    a,
                    c,
                )
                .build(),
            ),
            // Options on a segment mid-stream: the router's fresh data…
            18 => {
                let len = 1 + a % 1_448;
                frames.push(
                    options(
                        FrameBuilder::new(router, collector)
                            .at(Micros(t))
                            .ports(179, 40_000)
                            .seq(next)
                            .ack_to(1)
                            .payload(vec![0; len as usize]),
                        a,
                        c,
                    )
                    .build(),
                );
                next = next.wrapping_add(len);
            }
            // …or the collector's ACK.
            _ => frames.push(
                options(
                    FrameBuilder::new(collector, router)
                        .at(Micros(t))
                        .ports(40_000, 179)
                        .seq(1)
                        .ack_to(acked)
                        .window(65_535),
                    a,
                    c,
                )
                .build(),
            ),
        }
    }
    frames
}

fn connection(frames: &[TcpFrame]) -> Option<TcpConnection> {
    extract_connections(frames).into_iter().next()
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()),
        0..160,
    )
}

proptest! {
    #[test]
    fn kernels_equal_their_references(
        handshake in 0u8..3,
        wrapping in any::<bool>(),
        isn in any::<u32>(),
        steps in steps(),
    ) {
        let frames = frames_of(handshake, wrapping, isn, &steps);
        let Some(conn) = connection(&frames) else { return Ok(()) };
        let config = LabelConfig::default();
        let metas: Vec<FrameMeta> = frames.iter().enumerate().map(|(i, f)| FrameMeta::of(f, i)).collect();
        prop_assert_eq!(&conn, &build_connection_ref(&metas));
        prop_assert_eq!(label_segments(&conn, &config), label_segments_ref(&conn, &config));
        prop_assert_eq!(shift_acks(&conn), shift_acks_ref(&conn));
        for gap in [Micros(1), default_flight_gap(conn.profile.rtt), Micros::from_secs(1)] {
            let flights: Vec<(Vec<usize>, Micros, Micros)> = group_flights(&conn.segments, gap)
                .into_iter()
                .map(|f| (f.members.collect(), f.start, f.end))
                .collect();
            let reference: Vec<(Vec<usize>, Micros, Micros)> = group_flights_ref(&conn.segments, gap)
                .into_iter()
                .map(|f| (f.members, f.start, f.end))
                .collect();
            prop_assert_eq!(flights, reference);
        }
    }

    #[test]
    fn every_snapshot_is_the_reference_over_its_first_frames(
        handshake in 0u8..3,
        wrapping in any::<bool>(),
        isn in any::<u32>(),
        steps in steps(),
    ) {
        let frames = frames_of(handshake, wrapping, isn, &steps);
        let Some(first) = frames.first() else { return Ok(()) };
        let key = ConnKey::of(first);
        // A neighbour's frame before every third of the connection's,
        // so a frame's trace index and its place in its connection
        // differ.
        let mut trace = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            if i % 3 == 1 {
                let mut neighbour = frame.clone();
                if neighbour.tcp.src_port == 40_000 {
                    neighbour.tcp.src_port = 40_001;
                } else {
                    neighbour.tcp.dst_port = 40_001;
                }
                trace.push(neighbour);
            }
            trace.push(frame.clone());
        }
        let mut tracker = ConnectionTracker::new(TrackerConfig::batch());
        for frame in &trace {
            prop_assert!(tracker.ingest(frame).is_empty());
        }
        let metas: Vec<FrameMeta> = trace
            .iter()
            .enumerate()
            .filter(|(_, f)| ConnKey::of(f) == key)
            .map(|(i, f)| FrameMeta::of(f, i))
            .collect();
        prop_assert_eq!(metas.len(), frames.len());
        for n in 1..=metas.len() {
            prop_assert_eq!(tracker.snapshot_first(key, n), Some(build_connection_ref(&metas[..n])), "first {} frames", n);
        }
        prop_assert_eq!(tracker.snapshot_first(key, 0), None);
        prop_assert_eq!(tracker.snapshot_first(key, metas.len() + 1), None);
    }

    #[test]
    fn a_live_view_has_the_whole_analysis_series(
        handshake in 0u8..3,
        steps in steps(),
        from in 0i64..2_000_000,
    ) {
        let frames = frames_of(handshake, false, 1, &steps);
        let Some(conn) = connection(&frames) else { return Ok(()) };
        let analyzer = Analyzer::default();
        let window = Span::new(conn.profile.start + Micros(from), conn.profile.end + Micros(1));
        let extraction = Extraction::default();
        let partial = analyzer.analyze_partial_lossy(conn.clone(), &extraction, window, AnomalyCounts::default());
        let whole = analyzer.complete(conn, &partial, None);
        prop_assert_eq!(alert_series(&partial.series), alert_series(&whole.series));
        prop_assert_eq!(partial.period, whole.period);
    }
}

/// A [`SeriesSet`] accessor.
type Accessor = fn(&SeriesSet) -> SeriesView<'_, u32>;

/// Each of the 17 stored series beside the accessor that reads it.
const ACCESSORS: [(Slot, Accessor); 17] = [
    (Slot::Transmission, SeriesSet::transmission),
    (Slot::Outstanding, SeriesSet::outstanding),
    (Slot::AdvWindow, SeriesSet::adv_window),
    (Slot::UpstreamLoss, SeriesSet::upstream_loss),
    (Slot::DownstreamLoss, SeriesSet::downstream_loss),
    (Slot::SpuriousRetx, SeriesSet::spurious_retx),
    (Slot::ZeroWindow, SeriesSet::zero_window),
    (Slot::WindowProbes, SeriesSet::window_probes),
    (Slot::SendLocalLoss, SeriesSet::send_local_loss),
    (Slot::RecvLocalLoss, SeriesSet::recv_local_loss),
    (Slot::NetworkLoss, SeriesSet::network_loss),
    (Slot::SendAppLimited, SeriesSet::send_app_limited),
    (Slot::SmallAdvWindow, SeriesSet::small_adv_window),
    (Slot::LargeAdvWindow, SeriesSet::large_adv_window),
    (Slot::AdvBndOut, SeriesSet::adv_bnd_out),
    (Slot::CwdBndOut, SeriesSet::cwd_bnd_out),
    (Slot::BandwidthLimited, SeriesSet::bandwidth_limited),
];

/// Freezes `series` into a set through a builder, one list a slot in
/// [`Slot::ALL`] order, and checks that every list reads back through
/// its accessor as the builder holds it — every event, in order — and
/// that the set is those events alone.
fn freeze_and_read_back(series: &[Vec<(i64, i64, u32)>; 17]) -> Result<(), TestCaseError> {
    let mut built = SeriesBuilder::new(Span::from_micros(0, 1_000), 1448, 65_535);
    for (slot, events) in Slot::ALL.into_iter().zip(series) {
        for &(start, len, data) in events {
            built[slot].push(Span::from_micros(start, start + len), data);
        }
    }
    let set = built.build();
    let mut total = 0;
    for (i, (slot, read)) in ACCESSORS.into_iter().enumerate() {
        prop_assert_eq!(slot, Slot::ALL[i]);
        let events = read(&set).events();
        prop_assert_eq!(events, built[slot].events(), "{:?}", slot);
        prop_assert_eq!(set.get(slot), read(&set));
        prop_assert_eq!(events.len(), series[i].len());
        prop_assert!(events
            .windows(2)
            .all(|w| w[0].span.start <= w[1].span.start));
        total += events.len();
    }
    prop_assert_eq!(set.events().len(), total);
    prop_assert_eq!(
        (set.period, set.mss, set.max_adv_window),
        (built.period, 1448, 65_535)
    );
    Ok(())
}

proptest! {
    /// Freezing loses nothing: 17 arbitrary event lists, some of them
    /// empty (or all, for about one case in eight), come back through
    /// their accessors unchanged and in order.
    #[test]
    fn freezing_loses_nothing(
        series in prop::collection::vec(
            prop::collection::vec((-1_000i64..1_000, 0i64..50, any::<u32>()), 0..6),
            17..18,
        ),
        all_empty in 0u8..8,
    ) {
        let series: [_; 17] = series.try_into().expect("17 lists");
        let series = if all_empty == 0 { Default::default() } else { series };
        freeze_and_read_back(&series)?;
    }

    /// Interpretation copies the loss series into the slots that name
    /// them for the sniffer's location, each exactly its source: near
    /// the receiver, `RecvLocalLoss` is `DownstreamLoss` and
    /// `NetworkLoss` `UpstreamLoss`; near the sender, `SendLocalLoss` is
    /// `UpstreamLoss` and `NetworkLoss` `DownstreamLoss`; in the middle,
    /// `NetworkLoss` is both, upstream first where starts tie. A slot no
    /// location fills stays empty.
    #[test]
    fn interpretation_copies_its_sources(
        handshake in 0u8..3,
        steps in steps(),
    ) {
        let frames = frames_of(handshake, false, 1, &steps);
        let Some(conn) = connection(&frames) else { return Ok(()) };
        for sniffer in [SnifferLocation::NearReceiver, SnifferLocation::NearSender, SnifferLocation::Middle] {
            let config = AnalyzerConfig::builder().sniffer(sniffer).build().expect("valid");
            let analysis = Analyzer::new(config).analyze_extracted_lossy(
                conn.clone(),
                &Extraction::default(),
                AnomalyCounts::default(),
            );
            let s = &analysis.series;
            let (up, down) = (s.upstream_loss(), s.downstream_loss());
            let none = SeriesView::default();
            let (send, recv, network) = match sniffer {
                SnifferLocation::NearReceiver => (none, down, up.events().to_vec()),
                SnifferLocation::NearSender => (up, none, down.events().to_vec()),
                SnifferLocation::Middle => {
                    let mut both = up.events().to_vec();
                    both.extend_from_slice(down.events());
                    both.sort_by_key(|e| e.span.start);
                    (none, none, both)
                }
            };
            prop_assert_eq!(s.send_local_loss(), send, "{:?}", sniffer);
            prop_assert_eq!(s.recv_local_loss(), recv, "{:?}", sniffer);
            prop_assert_eq!(s.network_loss().events(), &network[..], "{:?}", sniffer);
        }
    }
}

/// Freezing keeps a series longer than 65 535 events whole, between
/// empty slots and a slot after it, so no end offset wraps at 16 bits.
#[test]
fn a_series_longer_than_65_535_events_freezes_whole() {
    let mut series: [Vec<(i64, i64, u32)>; 17] = Default::default();
    series[3] = (0..70_000).map(|i| (i, 1, i as u32)).collect();
    series[16] = vec![(5, 5, 7)];
    freeze_and_read_back(&series).expect("read back");
}

/// The series a live view keeps, rendered for comparison.
fn alert_series(s: &SeriesSet) -> String {
    format!(
        "{:?}",
        (
            s.period,
            s.max_adv_window,
            s.upstream_loss(),
            s.downstream_loss(),
            s.spurious_retx(),
            s.window_probes(),
            s.zero_window(),
            s.outstanding(),
            s.send_app_limited(),
        )
    )
}

/// Every case above ran through both sides of the one branch a
/// generated connection rarely takes unless asked: sequence numbers
/// past 2 GiB of transfer, where the release-point search cannot walk
/// a cursor.
#[test]
fn wrapped_sequence_space_is_shifted_as_before() {
    let steps: Vec<Step> = (0..80u32)
        .map(|i| {
            if i % 3 == 2 {
                (7, u32::MAX, 700, 2)
            } else {
                (0, 1_000 + i, 900, 0)
            }
        })
        .collect();
    let frames = frames_of(1, true, 7, &steps);
    let conn = connection(&frames).expect("one connection");
    let fresh: Vec<u32> = conn
        .data_segments()
        .filter(|s| s.payload_len > 0)
        .map(|s| s.seq_end)
        .collect();
    assert!(
        fresh.iter().any(|&s| seq_diff(s, fresh[0]) < 0),
        "the sequence space wraps past the first segment"
    );
    let shifted = shift_acks(&conn);
    assert_eq!(shifted, shift_acks_ref(&conn));
    assert!(!shifted.shifts.is_empty(), "some flight moved");
}

/// Orientation when payload bytes do not decide it — one side never
/// sent, or neither side sent payload and the initiator is the higher
/// endpoint — is as before. (Generated connections always have the
/// lower endpoint initiate.)
#[test]
fn connections_without_payload_orient_as_before() {
    let router = Ipv4Addr::new(10, 0, 0, 1);
    let collector = Ipv4Addr::new(10, 0, 0, 2);
    let frame = |src, dst, sport, dport, flags| {
        FrameBuilder::new(src, dst)
            .ports(sport, dport)
            .seq(1)
            .ack_to(1)
            .flags(flags)
            .build()
    };
    let cases = [
        // The collector's ACKs alone.
        frames_of(0, false, 1, &[(7, 0, 10, 2), (10, 0, 10, 0)]),
        // The collector opens, the router answers, nobody sends payload.
        vec![
            frame(collector, router, 40_000, 179, TcpFlags::SYN),
            frame(
                router,
                collector,
                179,
                40_000,
                TcpFlags::SYN | TcpFlags::ACK,
            ),
        ],
        // One frame.
        vec![frame(collector, router, 40_000, 179, TcpFlags::ACK)],
    ];
    for frames in cases {
        let conn = connection(&frames).expect("one connection");
        let metas: Vec<FrameMeta> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| FrameMeta::of(f, i))
            .collect();
        assert_eq!(conn, build_connection_ref(&metas));
        assert_eq!(conn.sender.0, collector, "the side that sent, or opened");
    }
}

/// The replaced `Flight`: its member list spelled out.
struct FlightRef {
    members: Vec<usize>,
    start: Micros,
    end: Micros,
}

impl FlightRef {
    fn span(&self) -> Span {
        Span::new(self.start, self.end)
    }
}

fn group_flights_ref<S: std::borrow::Borrow<Segment>>(
    segments: &[S],
    gap: Micros,
) -> Vec<FlightRef> {
    let mut flights: Vec<FlightRef> = Vec::new();
    for (idx, seg) in segments.iter().enumerate() {
        let seg = seg.borrow();
        match flights.last_mut() {
            Some(f) if seg.time - f.end <= gap => {
                f.members.push(idx);
                f.end = seg.time;
            }
            _ => flights.push(FlightRef {
                members: vec![idx],
                start: seg.time,
                end: seg.time,
            }),
        }
    }
    flights
}

fn label_segments_ref(conn: &TcpConnection, config: &LabelConfig) -> Vec<SegLabel> {
    let threshold = match conn.profile.rtt {
        Some(rtt) => config.reorder_threshold.max(rtt / 4),
        None => config.reorder_threshold,
    };

    // Pre-extract the ACK stream (time, ack) to answer "was this range
    // acked by time t".
    let acks: Vec<(Micros, u32)> = conn
        .segments
        .iter()
        .filter(|s| s.dir == Direction::Ack && s.flags.contains(tdat_packet::TcpFlags::ACK))
        .map(|s| (s.time, s.ack))
        .collect();
    // Duplicate-ACK times keyed by the ack value (for the reordering
    // filter: real upstream loss triggers dup ACKs from the receiver).
    let dup_ack_values: std::collections::HashSet<u32> = {
        let mut seen = std::collections::HashMap::new();
        let mut dups = std::collections::HashSet::new();
        for s in conn.segments.iter().filter(|s| s.dir == Direction::Ack) {
            if s.is_pure_ack() {
                let count = seen.entry(s.ack).or_insert(0u32);
                *count += 1;
                if *count >= 2 {
                    dups.insert(s.ack);
                }
            }
        }
        dups
    };
    let acked_by = |seq_end: u32, t: Micros| -> bool {
        acks.iter()
            .any(|(at, ack)| *at <= t && seq_diff(*ack, seq_end) >= 0)
    };

    // Open sequence holes: (start_seq, end_seq, opened_at).
    let mut holes: Vec<(u32, u32, Micros)> = Vec::new();
    // First-transmission record per range start: (seq, seq_end, time).
    let mut seen_ranges: Vec<(u32, u32, Micros)> = Vec::new();
    let mut max_end: Option<u32> = None;
    let mut labels = Vec::new();

    for seg in conn.data_segments() {
        if seg.payload_len == 0 && seg.seq == seg.seq_end {
            labels.push(SegLabel::InOrder);
            continue;
        }
        let label = match max_end {
            None => SegLabel::InOrder,
            Some(max) if seq_diff(seg.seq, max) >= 0 => SegLabel::InOrder,
            Some(_) => {
                // Sequence range at least partially below the maximum:
                // either a hole fill (upstream loss / reordering) or a
                // re-send of seen data (downstream loss / spurious).
                let hole = holes.iter().position(|(hs, he, _)| {
                    seq_diff(seg.seq, *hs) >= 0 && seq_diff(*he, seg.seq) > 0
                });
                match hole {
                    Some(idx) => {
                        let (hs, he, opened) = holes[idx];
                        let delay = seg.time - opened;
                        // Shrink or split the hole.
                        holes.remove(idx);
                        if seq_diff(seg.seq, hs) > 0 {
                            holes.push((hs, seg.seq, opened));
                        }
                        if seq_diff(he, seg.seq_end) > 0 {
                            holes.push((seg.seq_end, he, opened));
                        }
                        let dup_acked = dup_ack_values.contains(&hs);
                        if delay <= threshold && !dup_acked {
                            SegLabel::Reordered
                        } else {
                            SegLabel::UpstreamLoss(Span::new(opened, seg.time))
                        }
                    }
                    None => {
                        // Seen before: find the original transmission.
                        let original = seen_ranges
                            .iter()
                            .rev()
                            .find(|(os, _, _)| *os == seg.seq)
                            .or_else(|| {
                                seen_ranges.iter().rev().find(|(os, oe, _)| {
                                    seq_diff(seg.seq, *os) >= 0 && seq_diff(*oe, seg.seq) > 0
                                })
                            });
                        let sent_at = original.map(|(_, _, t)| *t).unwrap_or(seg.time);
                        if seg.payload_len == 1 && !acked_by(seg.seq_end, seg.time) {
                            // 1-byte re-send under a closed window is a
                            // persist probe, not a loss.
                            SegLabel::WindowProbe
                        } else if acked_by(seg.seq_end, seg.time) {
                            SegLabel::SpuriousRetransmission(Span::new(sent_at, seg.time))
                        } else {
                            SegLabel::DownstreamLoss(Span::new(sent_at, seg.time))
                        }
                    }
                }
            }
        };
        // Bookkeeping: record the range and any new hole.
        if let Some(max) = max_end {
            if seq_diff(seg.seq, max) > 0 {
                holes.push((max, seg.seq, seg.time));
            }
        }
        if max_end.is_none_or(|m| seq_diff(seg.seq_end, m) > 0) {
            max_end = Some(seg.seq_end);
        }
        seen_ranges.push((seg.seq, seg.seq_end, seg.time));
        labels.push(label);
    }
    labels
}

fn shift_acks_ref(conn: &TcpConnection) -> ShiftedTrace {
    let gap = default_flight_gap(conn.profile.rtt);
    let acks: Vec<Segment> = conn.ack_segments().cloned().collect();
    let data: Vec<Segment> = conn.data_segments().cloned().collect();
    let flights = group_flights_ref(&acks, gap);

    // New-data events: (time, seq_end) for segments advancing the
    // maximum sequence — both columns monotone.
    let mut new_data: Vec<(Micros, u32)> = Vec::new();
    let mut max_end: Option<u32> = None;
    for seg in &data {
        if seg.payload_len == 0 {
            continue;
        }
        let fresh = max_end.is_none_or(|m| seq_diff(seg.seq_end, m) > 0);
        if fresh {
            new_data.push((seg.time, seg.seq_end));
            max_end = Some(seg.seq_end);
        }
    }
    let base_seq = new_data.first().map(|(_, s)| *s).unwrap_or(0);
    // Relative (wrap-free) sequence for binary search.
    let rel = |s: u32| seq_diff(s, base_seq);

    // Per-ACK d2 estimate via *release points*: data with
    // `seq_end > prev_release` could only leave the sender after this
    // ACK arrived, so its sniffer arrival is a true lower bound on
    // t_ack + d2. (The naive "next data after the ACK" estimate
    // degenerates to ~0 under pipelined flow, where data released by
    // *earlier* ACKs keeps arriving continuously.)
    let mut d2_primary: Vec<Option<Micros>> = vec![None; acks.len()];
    let mut d2_fallback: Vec<Option<Micros>> = vec![None; acks.len()];
    {
        let mut prev_release: Option<i64> = None; // rel(seq) permitted so far
        for (i, ack) in acks.iter().enumerate() {
            if let Some(release) = prev_release {
                let idx = new_data.partition_point(|(_, s)| rel(*s) <= release);
                if let Some((t, _)) = new_data.get(idx) {
                    if *t >= ack.time {
                        d2_primary[i] = Some(*t - ack.time);
                    }
                }
            }
            // Fallback (window never binding, e.g. cwnd-clocked flow,
            // or no window context yet): first new data after the ACK.
            // Degenerate under pipelining — data released by *earlier*
            // ACKs keeps arriving ~immediately — so it is only used
            // when the whole flight lacks release-point estimates AND
            // no profile d2 is available.
            let idx = new_data.partition_point(|(t, _)| *t <= ack.time);
            if let Some((t, _)) = new_data.get(idx) {
                d2_fallback[i] = Some(*t - ack.time);
            }
            if ack.window > 0 {
                let this_release = rel(ack.ack) + ack.window as i64;
                prev_release = Some(prev_release.map_or(this_release, |p| p.max(this_release)));
            }
        }
    }

    // Connection-level upper bound on any shift: the upstream RTT
    // component d2 = rtt - d1 from the profile. Without it, a flight
    // whose sender idled before responding would absorb the idle time
    // into the shift and erase the very gap T-DAT needs to see.
    let global_d2 = conn.profile.d2();

    let mut shifts = Vec::new();
    let mut shifted_acks = acks.clone();
    for flight in &flights {
        // Zero-window ACKs release nothing; the data that follows
        // them came after the window reopened, so their estimate is
        // meaningless and they must stay in place.
        let open = |i: &&usize| acks[**i].window > 0;
        let d2_min = flight
            .members
            .iter()
            .filter(open)
            .filter_map(|&i| d2_primary[i])
            .min()
            // No release point fired in this flight: the window never
            // bound the sender here, so ACK→release delay is pure path
            // (the profile d2). The per-ACK fallback would collapse to
            // ~0 under pipelined cwnd-clocked flow and turn every cwnd
            // wait into a phantom sender-idle gap one RTT wide.
            .or(global_d2)
            .or_else(|| {
                flight
                    .members
                    .iter()
                    .filter(open)
                    .filter_map(|&i| d2_fallback[i])
                    .min()
            });
        let Some(mut shift) = d2_min else { continue };
        if let Some(cap) = global_d2 {
            shift = shift.min(cap);
        }
        if shift <= Micros::ZERO {
            continue;
        }
        for &i in &flight.members {
            if shifted_acks[i].window > 0 {
                shifted_acks[i].time += shift;
            }
        }
        shifts.push(FlightShift {
            flight: flight.span(),
            shift,
            acks: flight.members.len(),
        });
    }
    // Individual zero-window ACKs staying put may now be out of order
    // relative to shifted neighbours; restore time order.
    shifted_acks.sort_by_key(|s| s.time);

    // Merge back into one stream ordered by the new times. A shifted
    // ACK is placed *before* data at the same instant (it caused it).
    let mut segments: Vec<Segment> = Vec::with_capacity(data.len() + shifted_acks.len());
    let (mut i, mut j) = (0, 0);
    while i < data.len() || j < shifted_acks.len() {
        let take_ack = match (data.get(i), shifted_acks.get(j)) {
            (Some(d), Some(a)) => a.time <= d.time,
            (None, Some(_)) => true,
            _ => false,
        };
        if take_ack {
            segments.push(shifted_acks[j].clone());
            j += 1;
        } else {
            segments.push(data[i].clone());
            i += 1;
        }
    }
    ShiftedTrace { segments, shifts }
}

/// The per-frame facts connection building needs, captured once per
/// frame so a [`TcpConnection`] is built without retaining frame
/// payloads: the tracker's 56-byte record before it kept the endpoints
/// once per connection and the options beside the records.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FrameMeta {
    pub time: Micros,
    pub src: Endpoint,
    pub dst: Endpoint,
    pub seq: u32,
    pub seq_end: u32,
    pub ack: u32,
    pub window: u16,
    pub payload_len: u32,
    pub flags: TcpFlags,
    pub mss: Option<u16>,
    pub wscale: Option<u8>,
    pub frame_index: usize,
}

impl FrameMeta {
    /// Captures the fields of `frame`, recorded as trace index `index`.
    fn of(frame: &impl FrameLike, index: usize) -> FrameMeta {
        let tcp = frame.tcp();
        FrameMeta {
            time: frame.timestamp(),
            src: frame.src(),
            dst: frame.dst(),
            seq: tcp.seq,
            seq_end: frame.seq_end(),
            ack: tcp.ack,
            window: tcp.window,
            payload_len: frame.payload_len() as u32,
            flags: tcp.flags,
            mss: tcp.mss(),
            wscale: tcp.window_scale(),
            frame_index: index,
        }
    }
}

/// Builds one oriented, profiled connection from its frames' metadata
/// (in capture order) — the one connection builder, behind every
/// [`ConnectionTracker`](crate::ConnectionTracker) finalization and
/// snapshot.
///
/// The data sender is the side that transmitted more payload bytes
/// (for BGP monitoring traces, the operational router by orders of
/// magnitude); ties go to the connection initiator.
fn build_connection_ref(metas: &[FrameMeta]) -> TcpConnection {
    // Payload bytes per source endpoint.
    let mut bytes: HashMap<Endpoint, u64> = HashMap::new();
    let mut initiator: Option<Endpoint> = None;
    for m in metas {
        *bytes.entry(m.src).or_insert(0) += m.payload_len as u64;
        if m.flags.contains(TcpFlags::SYN) && !m.flags.contains(TcpFlags::ACK) {
            initiator.get_or_insert(m.src);
        }
    }
    let first_src = metas[0].src;
    // Most payload bytes wins; the initiator breaks a tie, then the
    // endpoint ordering (for determinism without a captured SYN).
    let max_bytes = bytes.values().copied().max().unwrap_or(0);
    let sender = initiator
        .filter(|init| bytes.get(init).copied().unwrap_or(0) == max_bytes)
        .or_else(|| {
            bytes
                .iter()
                .filter(|(_, b)| **b == max_bytes)
                .map(|(ep, _)| *ep)
                .min()
        })
        .unwrap_or(first_src);
    let receiver = metas
        .iter()
        .find_map(|m| {
            if m.src == sender {
                Some(m.dst)
            } else if m.dst == sender {
                Some(m.src)
            } else {
                None
            }
        })
        .expect("nonempty group");

    let mut segments = Vec::with_capacity(metas.len());
    let mut profile = ConnProfile {
        start: metas[0].time,
        ..ConnProfile::default()
    };
    let mut syn_time: Option<Micros> = None;
    let mut syn_ack_seen = false;
    let mut sender_mss: Option<u32> = None;
    let mut receiver_mss: Option<u32> = None;

    // First pass: window-scale negotiation (RFC 1323 — active only if
    // *both* SYNs carried the option). Scaled values are applied to
    // every non-SYN segment below.
    for m in metas {
        if m.flags.contains(TcpFlags::SYN) {
            if m.src == sender {
                profile.sender_wscale = m.wscale;
            } else {
                profile.receiver_wscale = m.wscale;
            }
        }
    }
    let scaling_active = profile.sender_wscale.is_some() && profile.receiver_wscale.is_some();
    let scale_of = |dir: Direction| -> u8 {
        if !scaling_active {
            return 0;
        }
        match dir {
            // A data-direction segment carries the *sender's* advertised
            // window, scaled by the shift the sender announced.
            Direction::Data => profile.sender_wscale.unwrap_or(0),
            Direction::Ack => profile.receiver_wscale.unwrap_or(0),
        }
    };

    for m in metas {
        let dir = if m.src == sender {
            Direction::Data
        } else {
            Direction::Ack
        };
        let shift = if m.flags.contains(TcpFlags::SYN) {
            0 // SYN windows are never scaled
        } else {
            scale_of(dir)
        };
        let seg = Segment {
            time: m.time,
            dir,
            seq: m.seq,
            seq_end: m.seq_end,
            ack: m.ack,
            window: (m.window as u32) << shift,
            payload_len: m.payload_len,
            flags: m.flags,
            frame_index: m.frame_index,
        };
        profile.end = profile.end.max(m.time);
        profile.frames += 1;
        if m.flags.contains(TcpFlags::RST) {
            profile.reset = true;
        }
        match dir {
            Direction::Data => {
                profile.data_bytes += seg.payload_len as u64;
                if seg.payload_len > 0 {
                    profile.data_segments += 1;
                }
                if let Some(mss) = m.mss {
                    sender_mss = Some(mss as u32);
                }
                if m.flags.contains(TcpFlags::SYN) && !m.flags.contains(TcpFlags::ACK) {
                    syn_time.get_or_insert(m.time);
                }
                // Handshake third packet: pure ACK from the sender after
                // the SYN|ACK.
                if syn_ack_seen && profile.established.is_none() && seg.is_pure_ack() {
                    profile.established = Some(m.time);
                    if let Some(syn) = syn_time {
                        profile.rtt = Some(m.time - syn);
                    }
                }
            }
            Direction::Ack => {
                profile.max_receiver_window = profile.max_receiver_window.max(seg.window);
                if let Some(mss) = m.mss {
                    receiver_mss = Some(mss as u32);
                }
                if m.flags.contains(TcpFlags::SYN) && m.flags.contains(TcpFlags::ACK) {
                    syn_ack_seen = true;
                }
            }
        }
        segments.push(seg);
    }
    profile.mss = match (sender_mss, receiver_mss) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (one, None) | (None, one) => one,
    };
    profile.d1 = estimate_d1_ref(&segments);
    TcpConnection {
        sender,
        receiver,
        segments,
        profile,
    }
}

/// Median delay between a data segment's arrival at the sniffer and the
/// first ACK covering it — the `d1` (sniffer↔receiver) RTT component.
fn estimate_d1_ref(segments: &[Segment]) -> Option<Micros> {
    let mut samples: Vec<i64> = Vec::new();
    let mut pending: Vec<(u32, Micros)> = Vec::new(); // (seq_end, sent)
    let mut max_seen: Option<u32> = None;
    for seg in segments {
        match seg.dir {
            Direction::Data if seg.payload_len > 0 => {
                // Only time first transmissions (Karn).
                let fresh = max_seen.is_none_or(|m| seq_diff(seg.seq_end, m) > 0);
                if fresh {
                    pending.push((seg.seq_end, seg.time));
                    max_seen = Some(seg.seq_end);
                }
            }
            Direction::Ack if seg.flags.contains(TcpFlags::ACK) => {
                pending.retain(|(seq_end, sent)| {
                    if seq_diff(seg.ack, *seq_end) >= 0 {
                        samples.push((seg.time - *sent).as_micros());
                        false
                    } else {
                        true
                    }
                });
            }
            _ => {}
        }
    }
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(Micros(samples[samples.len() / 2]))
}
