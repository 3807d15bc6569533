//! Property test: the collector's byte archive keeps what the eager
//! decoder it replaced kept. Arbitrary message streams — generated
//! tables, OPEN, KEEPALIVE and NOTIFICATION messages, with single-byte
//! mutations and truncations — reach a `BgpReceiverApp` over a real TCP
//! connection and are drained in arbitrary chunks. After every drain
//! the bytes consumed, the archive's length and last time, and
//! `last_peer_message` equal what the reference, a decode loop over a
//! reassembly buffer, gives for the same chunk; at the end the archive
//! decodes to the reference's messages and times.
//!
//! `PROPTEST_CASES` raises the 2 048 cases (CI runs 20 000), never lowers
//! them.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use tdat_bgp::{BgpMessage, NotificationMessage, OpenMessage, TableGenerator};
use tdat_tcpsim::bgpapp::BgpReceiverApp;
use tdat_tcpsim::tcp::{TcpEndpoint, TcpState};
use tdat_tcpsim::{BgpReceiverConfig, TcpConfig};
use tdat_timeset::Micros;

/// The collector as it was: every message decoded into an owned tree
/// as it became whole, and the buffer dropped on a reject.
#[derive(Default)]
struct EagerCollector {
    buffer: Vec<u8>,
    archive: Vec<(Micros, BgpMessage)>,
    last_peer_message: Micros,
}

impl EagerCollector {
    fn drain(&mut self, now: Micros, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.buffer.extend_from_slice(bytes);
        let mut cursor = &self.buffer[..];
        loop {
            match BgpMessage::decode(&mut cursor) {
                Ok(Some(msg)) => {
                    self.last_peer_message = now;
                    self.archive.push((now, msg));
                }
                Ok(None) => break,
                Err(_) => {
                    cursor = &[];
                    break;
                }
            }
        }
        let consumed = self.buffer.len() - cursor.len();
        self.buffer.drain(..consumed);
    }
}

/// A sender and a collector endpoint with the handshake done.
fn established_pair() -> (TcpEndpoint, TcpEndpoint) {
    let a_addr = (Ipv4Addr::new(10, 0, 0, 1), 179);
    let b_addr = (Ipv4Addr::new(10, 0, 0, 2), 40_000);
    let mut a = TcpEndpoint::new(a_addr, b_addr, 1, TcpConfig::default());
    let mut b = TcpEndpoint::new(b_addr, a_addr, 2, TcpConfig::default());
    b.open_passive();
    a.open_active(Micros::ZERO);
    ferry(&mut a, &mut b);
    assert_eq!(a.state(), TcpState::Established);
    (a, b)
}

/// Delivers frames both ways until neither side has any to send.
fn ferry(a: &mut TcpEndpoint, b: &mut TcpEndpoint) {
    loop {
        let (from_a, from_b) = (a.take_outbox(), b.take_outbox());
        if from_a.is_empty() && from_b.is_empty() {
            return;
        }
        for frame in from_a {
            b.on_frame(Micros::ZERO, &frame);
        }
        for frame in from_b {
            a.on_frame(Micros::ZERO, &frame);
        }
    }
}

/// One part of a stream: some whole messages' bytes.
fn arb_part() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (any::<u64>(), 0usize..120).prop_map(|(seed, routes)| {
            TableGenerator::new(seed)
                .routes(routes)
                .generate()
                .to_update_stream()
        }),
        (any::<u16>(), any::<u16>(), any::<u32>()).prop_map(|(asn, hold, id)| {
            BgpMessage::Open(OpenMessage::new(asn, hold, Ipv4Addr::from(id))).to_bytes()
        }),
        Just(BgpMessage::Keepalive.to_bytes()),
        (
            any::<u8>(),
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..12)
        )
            .prop_map(|(code, subcode, data)| {
                BgpMessage::Notification(NotificationMessage {
                    code,
                    subcode,
                    data,
                })
                .to_bytes()
            }),
    ]
}

/// How much one drain asks for: a number of bytes, or up to the start
/// of the next message as the stream was built, so a drain that follows
/// a reject sometimes starts on a message.
#[derive(Debug, Clone, Copy)]
enum Chunk {
    Bytes(usize),
    ToNextMessage,
}

fn arb_chunk() -> impl Strategy<Value = Chunk> {
    prop_oneof![
        (1usize..40).prop_map(Chunk::Bytes),
        (1usize..5_000).prop_map(Chunk::Bytes),
        Just(Chunk::ToNextMessage),
    ]
}

/// Where a mutation lands: anywhere, or a few bytes into a message —
/// its length, type code or the first fields of its body, where each of
/// the skim's rules is probed.
#[derive(Debug, Clone, Copy)]
enum Spot {
    Anywhere(usize),
    IntoMessage(usize, usize),
}

/// What a mutation writes: any byte, a small one, or the byte there
/// plus or minus one.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Any(u8),
    Small(u8),
    Step(bool),
}

fn arb_mutation() -> impl Strategy<Value = (Spot, Edit)> {
    (
        prop_oneof![
            any::<usize>().prop_map(Spot::Anywhere),
            (any::<usize>(), 16usize..40).prop_map(|(message, at)| Spot::IntoMessage(message, at)),
        ],
        prop_oneof![
            any::<u8>().prop_map(Edit::Any),
            (0u8..5).prop_map(Edit::Small),
            any::<bool>().prop_map(Edit::Step),
        ],
    )
}

/// The parts concatenated, each cut to `cut % (len + 1)` bytes one time
/// in six, then `mutations` applied; and where each message began.
fn assemble(
    parts: &[(Vec<u8>, usize, usize)],
    mutations: &[(Spot, Edit)],
) -> (Vec<u8>, Vec<usize>) {
    let (mut stream, mut starts) = (Vec::new(), Vec::new());
    for (bytes, cut, when) in parts {
        let keep = if *when == 0 {
            cut % (bytes.len() + 1)
        } else {
            bytes.len()
        };
        let mut at = 0;
        while at < keep {
            starts.push(stream.len() + at);
            at += usize::from(u16::from_be_bytes([bytes[at + 16], bytes[at + 17]]));
        }
        stream.extend_from_slice(&bytes[..keep]);
    }
    if !stream.is_empty() {
        for &(spot, edit) in mutations {
            let at = match spot {
                Spot::Anywhere(at) => at,
                Spot::IntoMessage(message, at) => starts[message % starts.len()] + at,
            } % stream.len();
            stream[at] = match edit {
                Edit::Any(byte) | Edit::Small(byte) => byte,
                Edit::Step(up) if up => stream[at].wrapping_add(1),
                Edit::Step(_) => stream[at].wrapping_sub(1),
            };
        }
    }
    (stream, starts)
}

proptest! {
    // At least 2 048 cases, more where `PROPTEST_CASES` asks for more.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(2048)))]

    #[test]
    fn archive_keeps_what_the_eager_decoder_kept(
        parts in prop::collection::vec((arb_part(), any::<usize>(), 0usize..6), 1..6),
        mutations in prop::collection::vec(arb_mutation(), 0..4),
        chunks in prop::collection::vec(arb_chunk(), 1..8),
    ) {
        let (stream, starts) = assemble(&parts, &mutations);
        let (mut sender, mut collector) = established_pair();
        prop_assert_eq!(sender.app_send(Micros::ZERO, &stream), stream.len());
        ferry(&mut sender, &mut collector);
        prop_assert_eq!(collector.readable_bytes(), stream.len());

        let mut app = BgpReceiverApp::new(BgpReceiverConfig::default());
        let mut eager = EagerCollector::default();
        let mut at = 0;
        for (step, chunk) in chunks.iter().cycle().enumerate() {
            if at == stream.len() {
                break;
            }
            let want = match *chunk {
                Chunk::Bytes(n) => n,
                Chunk::ToNextMessage => {
                    let next = starts.iter().find(|&&start| start > at);
                    next.map_or(stream.len(), |&start| start) - at
                }
            };
            let now = Micros(step as i64 / 2 + 1);
            let consumed = app.drain(now, &mut collector, want);
            let expected = want.min(stream.len() - at);
            prop_assert_eq!(consumed, expected, "drain {}", step);
            eager.drain(now, &stream[at..at + expected]);
            at += expected;
            prop_assert_eq!(app.archive.len(), eager.archive.len(), "drain {}", step);
            prop_assert_eq!(
                app.archive.last_time(),
                eager.archive.last().map(|(time, _)| *time),
                "drain {}",
                step
            );
            prop_assert_eq!(app.last_peer_message, eager.last_peer_message, "drain {}", step);
        }
        prop_assert_eq!(app.drain(Micros::MAX, &mut collector, 1), 0);
        prop_assert!(app.archive.iter().eq(eager.archive));
    }
}
