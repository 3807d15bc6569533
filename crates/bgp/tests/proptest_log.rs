//! Differential property test: the compact `MessageLog` — a 4-byte row
//! per message, one time per run of rows stamped alike, a 4-byte prefix
//! word per announced prefix (8 bytes past /24) — reads exactly as the
//! log it replaced, kept here as the reference: a 16-byte row per
//! message and an arena of prefixes packed into 8 bytes each, whose
//! prefix words are derived from the packed form here.
//!
//! The streams mix OPENs, KEEPALIVEs and UPDATEs that withdraw, announce
//! or both, up to the largest a message can carry (4 073 prefixes), with
//! runs of equal times, times that change from one message to the next
//! (forwards and back, across the sign and the 32-bit halves of a
//! timestamp), and rejected UPDATEs between kept ones. For every row
//! count both logs yield the same UPDATEs, MCT finds the same transfer
//! over both, and both settle at the same moments with the same answers.
//!
//! `PROPTEST_CASES` raises the case count (CI runs 20 000).

use std::net::Ipv4Addr;

use proptest::prelude::*;
use tdat_bgp::{
    find_transfer_end_ref, BgpMessage, Framed, KeptMessages, MctConfig, MctUpdate, MessageLog,
    OpenMessage, PathAttribute, Prefix, TableTransfer, UpdateMessage,
};
use tdat_timeset::Micros;

/// One message of the reference log.
#[derive(Debug, Clone, Copy)]
struct Row {
    time: Micros,
    type_code: u8,
    announced: u16,
    withdrawn: u16,
}

impl Row {
    fn counted(&self) -> bool {
        self.type_code == 2 && (self.announced > 0 || self.withdrawn > 0)
    }
}

/// The log as it was: one 16-byte row per message and the announced
/// prefixes packed `network << 8 | len`, in arrival order.
#[derive(Debug, Default)]
struct Reference {
    rows: Vec<Row>,
    announced: Vec<u64>,
}

/// A reference row as MCT reads it.
struct RefRow<'a> {
    announced: &'a [u64],
    withdrawn: u16,
    announced_ahead: usize,
}

impl MctUpdate for RefRow<'_> {
    fn announced_len(&self) -> usize {
        self.announced.len()
    }
    fn withdrawn_is_empty(&self) -> bool {
        self.withdrawn == 0
    }
    fn announced_words(&self) -> impl Iterator<Item = u32> + '_ {
        self.announced.iter().flat_map(|&packed| words(packed))
    }
    fn announced_ahead(&self) -> usize {
        self.announced_ahead
    }
}

/// What a log yields for one UPDATE: time, type code, the announced
/// prefixes' words and their count, withdrawn count, and the prefix
/// words it and every later row take.
type Read = (Micros, u8, Vec<u32>, usize, u16, usize);

impl Reference {
    /// Keeps the message at the front of `buf` with
    /// `BgpMessage::decode`'s contract, which the skim shares
    /// (`proptest_codec`).
    fn keep(&mut self, time: Micros, buf: &mut &[u8]) -> Framed {
        match BgpMessage::decode(buf) {
            Ok(Some(message)) => {
                let (announced, withdrawn) = match &message {
                    BgpMessage::Update(update) => {
                        self.announced
                            .extend(update.announced.iter().map(|p| packed(*p)));
                        (update.announced.len(), update.withdrawn.len())
                    }
                    _ => (0, 0),
                };
                self.rows.push(Row {
                    time,
                    type_code: message.type_code(),
                    announced: announced as u16,
                    withdrawn: withdrawn as u16,
                });
                Framed::Kept
            }
            Ok(None) => Framed::Partial,
            Err(_) => Framed::Rejected,
        }
    }

    /// The UPDATEs among the first `rows` messages, as the log yielded
    /// them when it held only those.
    fn updates_in_first(&self, rows: usize) -> impl Iterator<Item = (Micros, RefRow<'_>)> {
        let rows = &self.rows[..rows.min(self.rows.len())];
        let end = rows.iter().map(|row| usize::from(row.announced)).sum();
        let mut arena = &self.announced[..end];
        // Words the prefixes take: one each, two past /24.
        let width = |prefixes: &[u64]| -> usize {
            prefixes.len() + prefixes.iter().filter(|&&p| p as u8 > 24).count()
        };
        let mut announced_ahead = width(arena);
        rows.iter()
            .map(move |row| {
                let (announced, rest) = arena.split_at(usize::from(row.announced));
                arena = rest;
                let ahead = announced_ahead;
                announced_ahead -= width(announced);
                (
                    row,
                    RefRow {
                        announced,
                        withdrawn: row.withdrawn,
                        announced_ahead: ahead,
                    },
                )
            })
            .filter(|(row, _)| row.type_code == 2)
            .map(|(row, read)| (row.time, read))
    }

    fn reads(&self, rows: usize) -> Vec<Read> {
        self.updates_in_first(rows)
            .map(|(time, row)| {
                let announced = row.announced_words().collect();
                let count = row.announced.len();
                (
                    time,
                    2,
                    announced,
                    count,
                    row.withdrawn,
                    row.announced_ahead,
                )
            })
            .collect()
    }

    fn transfer_end(
        &self,
        start: Micros,
        rows: usize,
        config: &MctConfig,
    ) -> Option<TableTransfer> {
        find_transfer_end_ref(start, self.updates_in_first(rows), config)
    }

    /// Whether the log settles at `now`: it announced a prefix, and
    /// `now` lies more than `max_gap` past its last counted UPDATE.
    fn settles(&self, now: Micros, config: &MctConfig) -> bool {
        !self.announced.is_empty()
            && self
                .rows
                .iter()
                .rev()
                .find(|row| row.counted())
                .is_some_and(|last| now - last.time > config.max_gap)
    }
}

fn packed(prefix: Prefix) -> u64 {
    u64::from(u32::from(prefix.network())) << 8 | u64::from(prefix.len())
}

/// A packed prefix's prefix words: `network | len` up to /24, the
/// length then the network beyond.
fn words(packed: u64) -> impl Iterator<Item = u32> {
    let (network, len) = ((packed >> 8) as u32, packed as u8);
    let (words, taken) = if len <= 24 {
        ([network | u32::from(len), 0], 1)
    } else {
        ([u32::from(len), network], 2)
    };
    words.into_iter().take(taken)
}

fn reads(log: &MessageLog, rows: usize) -> Vec<Read> {
    log.updates_in_first(rows)
        .map(|(time, row)| {
            (
                time,
                row.type_code,
                row.announced.to_vec(),
                row.announced_len(),
                row.withdrawn,
                row.announced_ahead,
            )
        })
        .collect()
}

/// A prefix from a pool of 48 networks at any length, so UPDATEs repeat
/// prefixes and their host bits get masked.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..48, 0u8..=32)
        .prop_map(|(n, len)| Prefix::new(Ipv4Addr::from(n.wrapping_mul(0x9e37_79b9)), len).unwrap())
}

fn arb_prefixes() -> impl Strategy<Value = Vec<Prefix>> {
    prop::collection::vec(arb_prefix(), 1..8)
}

/// One message of a generated stream.
#[derive(Debug, Clone)]
enum Piece {
    Open,
    Keepalive,
    Withdraw(Vec<Prefix>),
    Announce(Vec<Prefix>),
    Mixed(Vec<Prefix>, Vec<Prefix>),
    /// An UPDATE of `count` /0s, withdrawn or announced: 4 073 fill a
    /// 4 096-byte message.
    Full {
        withdraw: bool,
        count: usize,
    },
    /// An UPDATE the skim rejects: one whose NLRI ends in a prefix
    /// longer than 32 bits after two valid ones, or one whose ORIGIN
    /// is out of range.
    Rejected {
        nlri: bool,
    },
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        Just(Piece::Open),
        Just(Piece::Keepalive),
        Just(Piece::Keepalive),
        arb_prefixes().prop_map(Piece::Withdraw),
        arb_prefixes().prop_map(Piece::Announce),
        arb_prefixes().prop_map(Piece::Announce),
        arb_prefixes().prop_map(Piece::Announce),
        (arb_prefixes(), arb_prefixes()).prop_map(|(w, a)| Piece::Mixed(w, a)),
        (any::<bool>(), prop_oneof![2_040usize..4_074, Just(4_073)])
            .prop_map(|(withdraw, count)| Piece::Full { withdraw, count }),
        any::<bool>().prop_map(|nlri| Piece::Rejected { nlri }),
    ]
}

impl Piece {
    fn wire(&self) -> Vec<u8> {
        let update = |withdrawn: &[Prefix], announced: &[Prefix]| {
            BgpMessage::Update(UpdateMessage {
                withdrawn: withdrawn.to_vec(),
                attributes: if announced.is_empty() {
                    Vec::new()
                } else {
                    vec![PathAttribute::Med(1)]
                },
                announced: announced.to_vec(),
            })
            .to_bytes()
        };
        match self {
            Piece::Open => {
                BgpMessage::Open(OpenMessage::new(65_001, 90, Ipv4Addr::new(10, 0, 0, 1)))
                    .to_bytes()
            }
            Piece::Keepalive => BgpMessage::Keepalive.to_bytes(),
            Piece::Withdraw(w) => update(w, &[]),
            Piece::Announce(a) => update(&[], a),
            Piece::Mixed(w, a) => update(w, a),
            Piece::Full { withdraw, count } => {
                let all = vec![Prefix::new(Ipv4Addr::UNSPECIFIED, 0).unwrap(); *count];
                let bytes = BgpMessage::Update(UpdateMessage {
                    withdrawn: if *withdraw { all.clone() } else { Vec::new() },
                    attributes: Vec::new(),
                    announced: if *withdraw { Vec::new() } else { all },
                })
                .to_bytes();
                assert!(bytes.len() <= 4_096);
                bytes
            }
            Piece::Rejected { nlri } => {
                let (attributes, nlri): (&[u8], &[u8]) = if *nlri {
                    (&[], &[24, 10, 0, 1, 24, 10, 0, 2, 33, 1, 2, 3, 4, 5])
                } else {
                    (&[0x40, 1, 1, 3], &[24, 10, 0, 3])
                };
                let len = 19 + 2 + 2 + attributes.len() + nlri.len();
                let mut wire = vec![0xff; 16];
                wire.extend_from_slice(&(len as u16).to_be_bytes());
                wire.extend_from_slice(&[2, 0, 0]);
                wire.extend_from_slice(&(attributes.len() as u16).to_be_bytes());
                wire.extend_from_slice(attributes);
                wire.extend_from_slice(nlri);
                wire
            }
        }
    }
}

/// How far a message lies from the one before it: often not at all (a
/// segment's messages share its time), a little either way, or past
/// MCT's gap.
#[derive(Debug, Clone, Copy)]
enum Step {
    Same,
    Forward(i64),
    Back(i64),
    PastMaxGap,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Same),
        Just(Step::Same),
        Just(Step::Same),
        (1i64..100).prop_map(Step::Forward),
        (1i64..100).prop_map(Step::Forward),
        (1i64..100).prop_map(Step::Back),
        Just(Step::PastMaxGap),
    ]
}

impl Step {
    fn micros(self, config: &MctConfig) -> Micros {
        match self {
            Step::Same => Micros::ZERO,
            Step::Forward(us) => Micros(us),
            Step::Back(us) => Micros(-us),
            Step::PastMaxGap => config.max_gap + Micros(1),
        }
    }
}

/// Where a stream starts: near zero, so its times cross the sign; near
/// a 32-bit boundary of the low half; or anywhere within ±2⁴⁰ µs.
fn arb_start() -> impl Strategy<Value = i64> {
    prop_oneof![
        -200i64..200,
        (1i64 << 31) - 200..(1i64 << 31) + 200,
        (1i64 << 32) - 200..(1i64 << 32) + 200,
        -(1i64 << 40)..(1i64 << 40),
    ]
}

fn arb_config() -> impl Strategy<Value = MctConfig> {
    (
        prop_oneof![Just(Micros(1_000)), Just(MctConfig::default().max_gap)],
        1usize..5,
    )
        .prop_map(|(max_gap, max_dup_run)| MctConfig {
            max_gap,
            max_dup_run,
            ..MctConfig::default()
        })
}

proptest! {
    /// The compact log and the reference, fed the same stream, keep and
    /// reject the same messages, and then for every row count up to one
    /// past the end yield the same UPDATEs and the same MCT answer for
    /// sessions starting at the first message and `max_gap` before it;
    /// settled at a moment after the last message, each settles or not
    /// alike, and the settled log answers as MCT over the reference.
    #[test]
    fn compact_log_reads_as_the_sixteen_byte_row_log(
        start in arb_start(),
        pieces in prop::collection::vec((arb_step(), arb_piece()), 0..30),
        config in arb_config(),
        wait in prop_oneof![Just(0i64), 1i64..100, Just(1_000), Just(1_001), Just(60_000_001)],
    ) {
        let mut log = MessageLog::default();
        let mut reference = Reference::default();
        let mut time = Micros(start);
        for (step, piece) in &pieces {
            time += step.micros(&config);
            let bytes = piece.wire();
            let framed = log.keep(time, &mut &bytes[..]);
            prop_assert_eq!(framed, reference.keep(time, &mut &bytes[..]), "{:?}", piece);
            let rejected = matches!(piece, Piece::Rejected { .. });
            prop_assert_eq!(framed, if rejected { Framed::Rejected } else { Framed::Kept });
        }
        prop_assert_eq!(log.len(), reference.rows.len());
        prop_assert_eq!(log.announced_prefixes(), reference.announced.len());
        prop_assert_eq!(log.updates().count(), reference.updates_in_first(usize::MAX).count());
        let starts = [Micros(start), Micros(start) - config.max_gap];
        for rows in 0..=log.len() + 1 {
            prop_assert_eq!(reads(&log, rows), reference.reads(rows), "first {} rows", rows);
            for start in starts {
                prop_assert_eq!(
                    log.transfer_end(start, rows, &config),
                    reference.transfer_end(start, rows, &config),
                    "first {} rows from {}", rows, start
                );
            }
        }
        let now = time + Micros(wait);
        let settles = reference.settles(now, &config);
        prop_assert_eq!(log.settle(now, &config), settles, "settled at {}", now);
        prop_assert_eq!(log.len(), reference.rows.len());
        for start in starts {
            for rows in log.len()..=log.len() + 1 {
                prop_assert_eq!(
                    log.transfer_end(start, rows, &config),
                    reference.transfer_end(start, rows, &config),
                    "settled: first {} rows from {}", rows, start
                );
            }
        }
    }
}
