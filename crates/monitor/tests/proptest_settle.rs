//! Differential property test: settling never changes an answer. Over
//! generated captures of several BGP sessions in time order, whose
//! routers go quiet for about MCT's `max_gap` or longer and announce
//! again after that — re-announcing prefixes they sent before, and
//! fresh ones — the table transfer of every connection, as the batch
//! pass finds it and as the watch reports it at finalization, is what
//! `find_transfer_end_ref` finds over that connection's whole message
//! list from `extract_all`, which keeps every message and settles
//! nothing. Both passes settle logs along the way: the batch pass as
//! soon as a frame takes its clock past a log's horizon, the watch
//! after a tick.
//!
//! `PROPTEST_CASES` raises the case count (CI runs 20 000).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use tdat::{AnalyzerConfig, Report, StreamAnalyzer};
use tdat_bgp::{
    find_transfer_end_ref, BgpMessage, MctConfig, PathAttribute, Prefix, TableTransfer,
    UpdateMessage,
};
use tdat_monitor::{Monitor, MonitorConfig, MonitorEvent};
use tdat_packet::{FrameBuilder, TcpFlags, TcpFrame};
use tdat_pcap2bgp::extract_all;
use tdat_timeset::Micros;

/// What a router sends: prefixes are indices into a pool of sixteen,
/// so announcements repeat and duplicate runs can end MCT's scan.
#[derive(Debug, Clone)]
enum Message {
    Announce(Vec<u8>),
    Withdraw(Vec<u8>),
    Keepalive,
}

/// The time before a message: inside a burst (often none at all, so a
/// message can share the time of the one before it), within a
/// microsecond of `max_gap`, or a silence past it.
#[derive(Debug, Clone, Copy)]
enum Pause {
    BurstMillis(i64),
    NearMaxGap(i64),
    QuietSecs(i64),
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        prop::collection::vec(0u8..16, 1..5).prop_map(Message::Announce),
        prop::collection::vec(0u8..16, 1..5).prop_map(Message::Announce),
        prop::collection::vec(0u8..16, 1..3).prop_map(Message::Withdraw),
        Just(Message::Keepalive),
    ]
}

fn arb_pause() -> impl Strategy<Value = Pause> {
    prop_oneof![
        (0i64..2_000).prop_map(Pause::BurstMillis),
        Just(Pause::BurstMillis(0)),
        (-1i64..2).prop_map(Pause::NearMaxGap),
        (61i64..240).prop_map(Pause::QuietSecs),
    ]
}

/// A session: when it opens (seconds in), then its messages, each with
/// the pause before it and whether it shares the segment before it.
type Session = (i64, Vec<(Pause, Message, bool)>);

fn arb_session() -> impl Strategy<Value = Session> {
    (
        0i64..120,
        prop::collection::vec((arb_pause(), arb_message(), any::<bool>()), 1..24),
    )
}

fn prefix(index: u8) -> Prefix {
    Prefix::new(Ipv4Addr::new(11, index, 0, 0), 16).expect("a /16")
}

/// Session `s`'s frames: its handshake, then its router's messages in
/// segments, none acknowledged and none closing.
fn frames_of(s: usize, (open, messages): &Session, max_gap: Micros) -> Vec<TcpFrame> {
    let router = Ipv4Addr::new(10, 90, 0, s as u8);
    let collector = Ipv4Addr::new(172, 23, 0, 1);
    let port = 40_000 + s as u16;
    let out = FrameBuilder::new(router, collector).ports(179, port);
    let t0 = Micros::from_secs(*open);
    let syn_ack = FrameBuilder::new(collector, router)
        .ports(port, 179)
        .at(t0 + Micros(100))
        .seq(0)
        .ack_to(1)
        .flags(TcpFlags::SYN | TcpFlags::ACK);
    let mut frames = vec![
        out.clone().at(t0).seq(0).flags(TcpFlags::SYN).build(),
        syn_ack.build(),
    ];
    let mut segments: Vec<(Micros, Vec<u8>)> = Vec::new();
    let mut at = t0 + Micros::from_millis(1);
    for (pause, message, joined) in messages {
        let bytes = match message {
            Message::Announce(pool) => {
                let announced = pool.iter().map(|&i| prefix(i)).collect();
                let update = UpdateMessage::announce(vec![PathAttribute::Med(1)], announced);
                BgpMessage::Update(update).to_bytes()
            }
            Message::Withdraw(pool) => BgpMessage::Update(UpdateMessage {
                withdrawn: pool.iter().map(|&i| prefix(i)).collect(),
                attributes: Vec::new(),
                announced: Vec::new(),
            })
            .to_bytes(),
            Message::Keepalive => BgpMessage::Keepalive.to_bytes(),
        };
        match segments.last_mut() {
            Some((_, segment)) if *joined => segment.extend(bytes),
            _ => {
                at += match *pause {
                    Pause::BurstMillis(ms) => Micros::from_millis(ms),
                    Pause::NearMaxGap(us) => max_gap + Micros(us),
                    Pause::QuietSecs(secs) => Micros::from_secs(secs),
                };
                segments.push((at, bytes));
            }
        }
    }
    let mut seq = 1u32;
    for (at, payload) in segments {
        let segment = out.clone().at(at).seq(seq).ack_to(1).flags(TcpFlags::ACK);
        seq += payload.len() as u32;
        frames.push(segment.payload(payload).build());
    }
    frames
}

proptest! {
    /// Every connection's transfer, from the batch pass and from the
    /// watch's final report, is MCT's over its whole message list.
    #[test]
    fn settling_changes_no_transfer_in_batch_or_watch(
        sessions in prop::collection::vec(arb_session(), 1..5),
    ) {
        let config = AnalyzerConfig::default();
        let max_gap = MctConfig::default().max_gap;
        let mut frames: Vec<TcpFrame> = sessions
            .iter()
            .enumerate()
            .flat_map(|(s, session)| frames_of(s, session, max_gap))
            .collect();
        frames.sort_by_key(|frame| frame.timestamp);

        let reference: HashMap<String, Option<TableTransfer>> = extract_all(&frames)
            .iter()
            .map(|(conn, extraction)| {
                let updates = extraction.messages.iter().filter_map(|(at, message)| match message {
                    BgpMessage::Update(update) => Some((*at, update)),
                    _ => None,
                });
                let transfer = find_transfer_end_ref(conn.profile.start, updates, &MctConfig::default());
                (format!("{}:{}", conn.sender.0, conn.sender.1), transfer)
            })
            .collect();

        let batch = StreamAnalyzer::new(config.clone()).analyze_frames(&frames);
        prop_assert_eq!(batch.len(), reference.len());
        let mut reports = HashMap::new();
        for analysis in &batch {
            let sender = format!("{}:{}", analysis.sender.0, analysis.sender.1);
            prop_assert_eq!(
                reference.get(&sender),
                Some(&analysis.transfer),
                "batch transfer of {}",
                sender
            );
            reports.insert(sender, Report::from_analysis(analysis, &config).to_json());
        }

        let mut monitor = Monitor::new(MonitorConfig::default());
        for frame in &frames {
            monitor.ingest(frame);
        }
        monitor.finish();
        let mut finalized = 0;
        for event in monitor.drain_events() {
            let MonitorEvent::Connection(summary) = event else {
                continue;
            };
            finalized += 1;
            let report = &summary.report;
            let expected = reference.get(&report.sender).cloned().flatten();
            prop_assert_eq!(
                report.prefixes,
                expected.map_or(0, |t| t.prefix_count),
                "watch transfer of {}",
                report.sender
            );
            prop_assert_eq!(Some(&report.to_json()), reports.get(&report.sender));
        }
        prop_assert_eq!(finalized, reference.len());
    }
}
