//! Differential property test: MCT as it is written now — one insert
//! per announced prefix, into a set sized from the rows still to read —
//! finds the same transfer as MCT as it was first written, kept here as
//! the reference, over streams built to reach its corners, read both as
//! borrowed `UpdateMessage`s and as the rows of a `MessageLog`.
//!
//! `PROPTEST_CASES` raises the case count (CI runs 20 000).

use std::collections::HashSet;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use tdat_bgp::{
    find_transfer_end_ref, BgpMessage, MctConfig, MctUpdate, MessageLog, PathAttribute, Prefix,
    TableTransfer, UpdateMessage,
};
use tdat_timeset::{Micros, Span};

/// The set the reference keeps; its hasher never changed an answer.
type PackedSet = HashSet<u64>;

/// `find_transfer_end_ref` as it was first written: a `contains` probe
/// per announced prefix to count the new ones, then `extend` to insert
/// them, so a prefix an update announces twice before the set has it
/// counts as new twice.
fn reference<I, U>(start: Micros, updates: I, config: &MctConfig) -> Option<TableTransfer>
where
    I: IntoIterator<Item = (Micros, U)>,
    U: MctUpdate,
{
    let mut seen = PackedSet::default();
    let mut end: Option<Micros> = None;
    let mut update_count = 0;
    let mut counted = 0;
    let mut dup_run = 0;
    let mut last_time = start;
    let mut prefix_count = 0;
    let mut iter = updates.into_iter();
    for (time, update) in iter.by_ref() {
        let announced = update.announced_len();
        if announced == 0 && update.withdrawn_is_empty() {
            continue; // keepalive-equivalent / attribute-only updates
        }
        if time - last_time > config.max_gap {
            break;
        }
        counted += 1;
        let new = update
            .packed_announced()
            .filter(|p| !seen.contains(p))
            .count();
        let dup_frac = 1.0 - new as f64 / announced.max(1) as f64;
        seen.extend(update.packed_announced());
        last_time = time;
        if new > 0 && dup_frac <= config.dup_tolerance {
            end = Some(time);
            update_count = counted;
            dup_run = 0;
            prefix_count = seen.len();
        } else {
            // A rejected update sharing the current end's timestamp is
            // still inside the transfer period, so its prefixes belong
            // in the distinct count.
            if end.is_some_and(|e| time <= e) {
                prefix_count = seen.len();
            }
            dup_run += 1;
            if dup_run >= config.max_dup_run {
                break;
            }
        }
    }
    let end = end?;
    // Updates past an early duplicate-run break can still share the
    // end timestamp; the distinct-prefix count covers every update
    // within the transfer period.
    for (time, update) in iter {
        if time > end {
            break;
        }
        seen.extend(update.packed_announced());
        prefix_count = seen.len();
    }
    Some(TableTransfer {
        span: Span::new(start, end),
        update_count,
        prefix_count,
    })
}

/// The `i`-th prefix of the generated streams: distinct /24s.
fn prefix(i: usize) -> Prefix {
    Prefix::new(Ipv4Addr::from(0x0a00_0000 + ((i as u32) << 8)), 24).unwrap()
}

/// One announced prefix of a generated UPDATE.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// A prefix no update has announced yet.
    Fresh,
    /// Again the `n`-th (mod its length) prefix of this same update:
    /// fresh or seen, whatever that one was.
    Repeat(usize),
    /// The `n`-th (mod their number) prefix earlier updates announced.
    Seen(usize),
}

fn arb_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        Just(Pick::Fresh),
        Just(Pick::Fresh),
        (0usize..8).prop_map(Pick::Repeat),
        any::<usize>().prop_map(Pick::Seen),
    ]
}

/// One message of a generated stream.
#[derive(Debug, Clone)]
enum Piece {
    Announce(Vec<Pick>),
    /// An UPDATE that only withdraws.
    Withdraw(usize),
    /// An UPDATE that carries attributes and no prefix.
    AttributesOnly,
    Keepalive,
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        prop::collection::vec(arb_pick(), 1..6).prop_map(Piece::Announce),
        prop::collection::vec(arb_pick(), 1..6).prop_map(Piece::Announce),
        prop::collection::vec(arb_pick(), 1..6).prop_map(Piece::Announce),
        (1usize..4).prop_map(Piece::Withdraw),
        Just(Piece::AttributesOnly),
        Just(Piece::Keepalive),
    ]
}

/// How far a message lies after the one before it (or the first after
/// `start`): often not at all, so timestamps tie at the transfer end
/// and after a duplicate-run break; sometimes exactly `max_gap` or one
/// microsecond more.
#[derive(Debug, Clone, Copy)]
enum Step {
    Same,
    Small(i64),
    MaxGap,
    PastMaxGap,
    Far,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Same),
        Just(Step::Same),
        (1i64..100).prop_map(Step::Small),
        (1i64..100).prop_map(Step::Small),
        Just(Step::MaxGap),
        Just(Step::PastMaxGap),
        Just(Step::Far),
    ]
}

impl Step {
    fn micros(self, config: &MctConfig) -> Micros {
        match self {
            Step::Same => Micros::ZERO,
            Step::Small(us) => Micros(us),
            Step::MaxGap => config.max_gap,
            Step::PastMaxGap => config.max_gap + Micros(1),
            Step::Far => config.max_gap * 4,
        }
    }
}

/// MCT knobs small enough for short streams to cross them: a gap of
/// 1 ms or the default minute, any tolerance, duplicate runs of 1–4.
fn arb_config() -> impl Strategy<Value = MctConfig> {
    (
        prop_oneof![Just(Micros(1_000)), Just(MctConfig::default().max_gap)],
        prop_oneof![Just(0.0), Just(0.25), Just(0.5), Just(0.75), Just(1.0)],
        1usize..5,
    )
        .prop_map(|(max_gap, dup_tolerance, max_dup_run)| MctConfig {
            max_gap,
            dup_tolerance,
            max_dup_run,
        })
}

/// The stream `pieces` describe, stamped from `start`.
fn build(start: Micros, pieces: &[(Step, Piece)], config: &MctConfig) -> Vec<(Micros, BgpMessage)> {
    let mut announced_before: Vec<usize> = Vec::new();
    let mut next_fresh = 0usize;
    let mut time = start;
    let mut stream = Vec::new();
    for (step, piece) in pieces {
        time += step.micros(config);
        let message = match piece {
            Piece::Announce(picks) => {
                let mut ids: Vec<usize> = Vec::new();
                for pick in picks {
                    let id = match *pick {
                        Pick::Repeat(n) if !ids.is_empty() => ids[n % ids.len()],
                        Pick::Seen(n) if !announced_before.is_empty() => {
                            announced_before[n % announced_before.len()]
                        }
                        _ => {
                            next_fresh += 1;
                            next_fresh - 1
                        }
                    };
                    ids.push(id);
                }
                announced_before.extend(&ids);
                let prefixes = ids.into_iter().map(prefix).collect();
                BgpMessage::Update(UpdateMessage::announce(
                    vec![PathAttribute::Med(1)],
                    prefixes,
                ))
            }
            Piece::Withdraw(n) => BgpMessage::Update(UpdateMessage {
                withdrawn: (0..*n).map(|i| prefix(1_000 + i)).collect(),
                attributes: Vec::new(),
                announced: Vec::new(),
            }),
            Piece::AttributesOnly => BgpMessage::Update(UpdateMessage::announce(
                vec![PathAttribute::LocalPref(100)],
                Vec::new(),
            )),
            Piece::Keepalive => BgpMessage::Keepalive,
        };
        stream.push((time, message));
    }
    stream
}

/// Holds the two MCTs to one answer over `stream`, read as borrowed
/// UPDATEs and as log rows (which carry `announced_ahead`).
fn agree(
    start: Micros,
    stream: &[(Micros, BgpMessage)],
    config: &MctConfig,
) -> Result<Option<TableTransfer>, TestCaseError> {
    let updates = || {
        stream.iter().filter_map(|(time, message)| match message {
            BgpMessage::Update(update) => Some((*time, update)),
            _ => None,
        })
    };
    let expected = reference(start, updates(), config);
    prop_assert_eq!(
        find_transfer_end_ref(start, updates(), config),
        expected.clone()
    );
    let log: MessageLog = stream.iter().collect();
    prop_assert_eq!(reference(start, log.updates(), config), expected.clone());
    prop_assert_eq!(
        find_transfer_end_ref(start, log.updates(), config),
        expected.clone()
    );
    Ok(expected)
}

proptest! {
    /// Streams of announcing, withdraw-only and attribute-only UPDATEs
    /// and KEEPALIVEs under arbitrary knobs: repeats inside one UPDATE
    /// of fresh and of already-seen prefixes, ties at the transfer end,
    /// duplicate-run breaks followed by tail rows at the end's
    /// timestamp, and a first counted UPDATE at exactly `max_gap` after
    /// `start` or one microsecond past it.
    #[test]
    fn mct_matches_contains_then_extend_reference(
        start in prop_oneof![Just(0i64), 1i64..1_000_000],
        first in arb_step(),
        pieces in prop::collection::vec((arb_step(), arb_piece()), 0..40),
        config in arb_config(),
    ) {
        let mut pieces = pieces;
        if let Some(head) = pieces.first_mut() {
            head.0 = first;
        }
        let stream = build(Micros(start), &pieces, &config);
        agree(Micros(start), &stream, &config)?;
    }

    /// A table, then a duplicate run at the end's timestamp long enough
    /// to break the scan, then tail rows still at that timestamp whose
    /// prefixes the distinct count must take, then later churn.
    #[test]
    fn dup_run_break_then_tail_at_the_end_timestamp(
        table in prop::collection::vec(prop::collection::vec(arb_pick(), 1..6), 1..12),
        tail in prop::collection::vec(arb_piece(), 0..6),
        churn in prop::collection::vec((arb_step(), arb_piece()), 0..6),
        max_dup_run in 1usize..4,
    ) {
        let config = MctConfig { max_dup_run, ..MctConfig::default() };
        let mut pieces: Vec<(Step, Piece)> = table
            .into_iter()
            .map(|picks| (Step::Small(10), Piece::Announce(picks)))
            .collect();
        pieces.extend((0..max_dup_run).map(|_| (Step::Same, Piece::Announce(vec![Pick::Seen(0)]))));
        pieces.extend(tail.into_iter().map(|piece| (Step::Same, piece)));
        pieces.extend(churn);
        let stream = build(Micros::ZERO, &pieces, &config);
        prop_assert!(agree(Micros::ZERO, &stream, &config)?.is_some());
    }
}

/// The identity trap, by hand: `[a, a, b]` with `b` seen before is two
/// new occurrences in three under the original count (a growing update)
/// and one distinct new prefix in three under a count of `insert`'s
/// answers (a duplicate) — and the transfer end moves with it.
#[test]
fn a_repeat_inside_one_update_counts_at_every_occurrence() {
    let config = MctConfig::default();
    let at = |ms| Micros::from_millis(ms);
    let update = |ids: &[usize]| {
        BgpMessage::Update(UpdateMessage::announce(
            vec![PathAttribute::Med(1)],
            ids.iter().copied().map(prefix).collect(),
        ))
    };
    let stream = vec![(at(1), update(&[0, 1])), (at(2), update(&[2, 2, 0]))];
    let transfer = agree(Micros::ZERO, &stream, &config).unwrap().unwrap();
    assert_eq!(transfer.span.end, at(2));
    assert_eq!(transfer.update_count, 2);
    assert_eq!(transfer.prefix_count, 3);
}
