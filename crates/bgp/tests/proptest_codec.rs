//! Property tests: arbitrary BGP messages survive encode/decode,
//! message streams re-segment correctly from arbitrary split points,
//! and the skim decoder that fills a `MessageLog` accepts, waits on and
//! rejects exactly what `BgpMessage::decode` does.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use tdat_bgp::{
    AsPath, AsPathSegment, BgpMessage, Framed, KeptMessages, MessageLog, NotificationMessage,
    OpenMessage, Origin, PathAttribute, Prefix, UpdateMessage, WholeMessages,
};
use tdat_timeset::Micros;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::new(Ipv4Addr::from(bits), len).unwrap())
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u16>(), 1..6).prop_map(AsPathSegment::Sequence),
            prop::collection::vec(any::<u16>(), 1..4).prop_map(AsPathSegment::Set),
        ],
        1..3,
    )
    .prop_map(|segments| AsPath { segments })
}

fn arb_attr() -> impl Strategy<Value = PathAttribute> {
    prop_oneof![
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ]
        .prop_map(PathAttribute::Origin),
        arb_as_path().prop_map(PathAttribute::AsPath),
        any::<u32>().prop_map(|v| PathAttribute::NextHop(Ipv4Addr::from(v))),
        any::<u32>().prop_map(PathAttribute::Med),
        any::<u32>().prop_map(PathAttribute::LocalPref),
        Just(PathAttribute::AtomicAggregate),
        (any::<u16>(), any::<u32>())
            .prop_map(|(asn, id)| PathAttribute::Aggregator(asn, Ipv4Addr::from(id))),
        prop::collection::vec(any::<u32>(), 1..5).prop_map(PathAttribute::Communities),
        prop::collection::vec(prop::collection::vec(any::<u32>(), 1..4), 1..3)
            .prop_map(PathAttribute::As4Path),
    ]
}

fn arb_message() -> impl Strategy<Value = BgpMessage> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u32>()).prop_map(|(asn, hold, id)| {
            BgpMessage::Open(OpenMessage::new(asn, hold, Ipv4Addr::from(id)))
        }),
        (
            prop::collection::vec(arb_prefix(), 0..8),
            prop::collection::vec(arb_attr(), 0..5),
            prop::collection::vec(arb_prefix(), 0..8),
        )
            .prop_map(|(withdrawn, attributes, announced)| {
                BgpMessage::Update(UpdateMessage {
                    withdrawn,
                    attributes,
                    announced,
                })
            }),
        (
            any::<u8>(),
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..16)
        )
            .prop_map(|(code, subcode, data)| BgpMessage::Notification(
                NotificationMessage {
                    code,
                    subcode,
                    data
                }
            )),
        Just(BgpMessage::Keepalive),
    ]
}

/// Holds the two kept-message types to one contract over `bytes`: at
/// every offset on its own, and walking the whole buffer under the
/// reassembler's resync rule (a reject skips one byte), the skim and
/// `decode` give the same accept / partial / reject answer, consume the
/// same length, and keep the same thing — time, type code, packed
/// announced prefixes, withdrawn count; nothing on a reject.
fn skim_agrees_with_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
    for offset in 0..=bytes.len() {
        let (mut skimmed, mut decoded) = (&bytes[offset..], &bytes[offset..]);
        let (mut log, mut whole) = (MessageLog::default(), WholeMessages::default());
        let time = Micros(offset as i64);
        let framed = log.keep(time, &mut skimmed);
        prop_assert_eq!(
            framed,
            whole.keep(time, &mut decoded),
            "at offset {}",
            offset
        );
        prop_assert_eq!(skimmed.len(), decoded.len(), "at offset {}", offset);
        prop_assert_eq!(log.len(), usize::from(framed == Framed::Kept));
        prop_assert_eq!(log, whole.iter().collect(), "at offset {}", offset);
    }
    let (mut skimmed, mut decoded) = (bytes, bytes);
    let (mut log, mut whole) = (MessageLog::default(), WholeMessages::default());
    loop {
        let time = Micros((bytes.len() - skimmed.len()) as i64);
        let framed = log.keep(time, &mut skimmed);
        prop_assert_eq!(framed, whole.keep(time, &mut decoded));
        match framed {
            Framed::Kept => {}
            Framed::Partial => break,
            Framed::Rejected => {
                skimmed = &skimmed[1..];
                decoded = &decoded[1..];
            }
        }
        prop_assert_eq!(skimmed.len(), decoded.len());
    }
    prop_assert_eq!(log.announced_prefixes(), whole.announced_prefixes());
    prop_assert_eq!(log, whole.iter().collect());
    Ok(())
}

/// A length field for `len` bytes: right ten times in twelve, else one
/// too many or one too few.
fn slipped(len: usize, slip: usize) -> usize {
    match slip {
        0 => len + 1,
        1 => len.saturating_sub(1),
        _ => len,
    }
}

fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), len)
}

/// One NLRI entry as it may appear on the wire: a prefix length of
/// 0–39 (33 up is invalid) and, one time in eight, an address one byte
/// short of what that length calls for.
fn arb_nlri_entry() -> impl Strategy<Value = Vec<u8>> {
    (0u8..=39, any::<u32>(), 0usize..8).prop_map(|(len, bits, short)| {
        let address = usize::from(len).div_ceil(8).min(4);
        let address = if short == 0 {
            address.saturating_sub(1)
        } else {
            address
        };
        let mut entry = vec![len];
        entry.extend_from_slice(&bits.to_be_bytes()[..address]);
        entry
    })
}

/// AS_PATH (`width` 2) or AS4_PATH (4) segments with kinds drawn from
/// `kinds` (valid and not), counts of 0–3 and, one time in eight, the
/// last ASN cut short.
fn arb_segments(
    width: usize,
    kinds: std::ops::RangeInclusive<u8>,
) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((kinds, 0usize..4, any::<u64>(), 0usize..8), 0..3).prop_map(
        move |segments| {
            let mut value = Vec::new();
            for (kind, count, asns, short) in segments {
                value.extend_from_slice(&[kind, count as u8]);
                let asns = asns.to_be_bytes().repeat(2);
                let len = (count * width).saturating_sub(usize::from(short == 0));
                value.extend_from_slice(&asns[..len]);
            }
            value
        },
    )
}

/// One path attribute as it may appear on the wire: any flags byte
/// (extended length included), a type code of 0–19 paired most of the
/// time with a value near what that type requires — so each
/// per-type rule is probed from both sides — and a length field that
/// is sometimes off by one.
fn arb_attribute_wire() -> impl Strategy<Value = Vec<u8>> {
    let typed = prop_oneof![
        (0u8..=3).prop_map(|code| (1u8, vec![code])),
        arb_segments(2, 0..=3).prop_map(|v| (2u8, v)),
        (3u8..=5, arb_bytes(3..6)),
        arb_bytes(0..2).prop_map(|v| (6u8, v)),
        arb_bytes(5..8).prop_map(|v| (7u8, v)),
        arb_bytes(3..10).prop_map(|v| (8u8, v)),
        arb_segments(4, 1..=3).prop_map(|v| (17u8, v)),
        (0u8..=19, arb_bytes(0..10)),
    ];
    (any::<u8>(), typed, 0usize..12).prop_map(|(flags, (type_code, value), slip)| {
        let declared = slipped(value.len(), slip);
        let mut wire = vec![flags, type_code];
        if flags & 0x10 != 0 {
            wire.extend_from_slice(&(declared as u16).to_be_bytes());
        } else {
            wire.push(declared as u8);
        }
        wire.extend_from_slice(&value);
        wire
    })
}

/// A valid marker, then `len` as the header's length field whatever
/// the body's real size.
fn framed_wire(len: usize, type_code: u8, body: &[u8]) -> Vec<u8> {
    let mut wire = vec![0xff; 16];
    wire.extend_from_slice(&(len as u16).to_be_bytes());
    wire.push(type_code);
    wire.extend_from_slice(body);
    wire
}

/// An UPDATE assembled from adversarial parts, each of its three length
/// fields sometimes inconsistent with what follows.
fn arb_update_wire() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(arb_nlri_entry(), 0..4),
        prop::collection::vec(arb_attribute_wire(), 0..4),
        prop::collection::vec(arb_nlri_entry(), 0..5),
        (0usize..12, 0usize..12, 0usize..12),
    )
        .prop_map(|(withdrawn, attributes, announced, slips)| {
            let (withdrawn, attributes) = (withdrawn.concat(), attributes.concat());
            let mut body = Vec::new();
            body.extend_from_slice(&(slipped(withdrawn.len(), slips.0) as u16).to_be_bytes());
            body.extend_from_slice(&withdrawn);
            body.extend_from_slice(&(slipped(attributes.len(), slips.1) as u16).to_be_bytes());
            body.extend_from_slice(&attributes);
            body.extend_from_slice(&announced.concat());
            framed_wire(slipped(19 + body.len(), slips.2), 2, &body)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid streams, then damaged: random byte mutations and a
    /// truncated tail.
    #[test]
    fn skim_matches_decode_on_mutated_streams(
        msgs in prop::collection::vec(arb_message(), 1..5),
        mutations in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
    ) {
        let mut stream: Vec<u8> = msgs.iter().flat_map(BgpMessage::to_bytes).collect();
        skim_agrees_with_decode(&stream)?;
        for (at, byte) in mutations {
            let at = at % stream.len();
            stream[at] = byte;
        }
        skim_agrees_with_decode(&stream)?;
        stream.truncate(cut % (stream.len() + 1));
        skim_agrees_with_decode(&stream)?;
    }

    /// A good marker in front of any type code and any body, small
    /// bytes over-represented so OPEN's parameter length is sometimes
    /// satisfiable; the header length is the body's, or off by one, or
    /// near either end of the legal range, or anything.
    #[test]
    fn skim_matches_decode_on_arbitrary_bodies(
        type_code in 0u8..=6,
        body in prop::collection::vec(prop_oneof![any::<u8>(), 0u8..4], 0..40),
        len in prop_oneof![
            (0usize..12).prop_map(Err),
            (0usize..12).prop_map(Err),
            prop_oneof![15usize..24, 4090usize..4104, 0usize..65536].prop_map(Ok),
        ],
        trailer in arb_bytes(0..24),
    ) {
        let len = len.unwrap_or_else(|slip| slipped(19 + body.len(), slip));
        let mut wire = framed_wire(len, type_code, &body);
        wire.extend_from_slice(&trailer);
        skim_agrees_with_decode(&wire)?;
    }

    /// Structured UPDATEs with adversarial prefix lengths, attribute
    /// flags, type codes and inconsistent length fields, two in a row
    /// so a reject of the second cannot disturb what the first logged.
    #[test]
    fn skim_matches_decode_on_adversarial_updates(
        first in arb_update_wire(),
        second in arb_update_wire(),
    ) {
        skim_agrees_with_decode(&[first, second].concat())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_round_trip(msg in arb_message()) {
        let wire = msg.to_bytes();
        prop_assert_eq!(wire.len(), msg.wire_len());
        let mut rest = &wire[..];
        let got = BgpMessage::decode(&mut rest).unwrap().unwrap();
        prop_assert!(rest.is_empty());
        prop_assert_eq!(got, msg);
    }

    #[test]
    fn stream_resegments(msgs in prop::collection::vec(arb_message(), 1..6)) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.to_bytes());
        }
        let mut rest = &stream[..];
        let mut got = Vec::new();
        while let Some(m) = BgpMessage::decode(&mut rest).unwrap() {
            got.push(m);
        }
        prop_assert!(rest.is_empty());
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn partial_prefix_of_stream_never_errors(msg in arb_message(), cut in 0usize..100) {
        // Any prefix of a valid stream must yield Ok(Some) messages then
        // Ok(None), never Err — this is what pcap2bgp relies on while a
        // message is still in flight.
        let wire = msg.to_bytes();
        let cut = cut.min(wire.len());
        let mut rest = &wire[..cut];
        loop {
            match BgpMessage::decode(&mut rest) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => return Err(TestCaseError::fail(format!("error on prefix: {e}"))),
            }
        }
    }

    #[test]
    fn prefix_masking_idempotent(p in arb_prefix()) {
        let again = Prefix::new(p.network(), p.len()).unwrap();
        prop_assert_eq!(again, p);
        prop_assert!(p.is_empty() || p.contains(p.network()));
    }
}
