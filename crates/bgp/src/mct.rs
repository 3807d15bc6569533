//! MCT — Minimum Collection Time detection of table-transfer ends.
//!
//! Zhang et al. [36] identify BGP routing-table transfers inside an
//! update stream by exploiting what makes a transfer distinctive: it is
//! a dense burst of updates announcing (almost entirely) *not previously
//! seen* prefixes, whereas steady-state churn re-announces prefixes the
//! session already carried. The paper uses a streamlined variant
//! (§II-A): the TCP connection start pins the transfer *start*, and MCT
//! is run only to estimate the transfer *end*.
//!
//! This module implements that variant. Scanning updates in arrival
//! order from the session start, it maintains the set of prefixes
//! announced so far; the transfer ends at the last update that still
//! grows the table, where "still grows" tolerates a bounded amount of
//! in-transfer duplication (retransmitted or re-packed updates) and a
//! bounded quiet gap (timer gaps, loss recovery). An update beyond
//! either bound is attributed to steady-state churn.
//!
//! The set is the cost: one hash probe per announced prefix, so each
//! prefix is inserted once and counted by `insert`'s answer. It is
//! keyed by the message log's prefix words as they are, 4 bytes a key:
//! a prefix of up to 24 bits is one word, `network | len`, and the rare
//! longer prefix (an escape word, then its network) goes to a side set
//! of `network << 8 | len` that allocates only once one occurs. The set
//! is sized from the rows still to read ([`MctUpdate::announced_ahead`])
//! rather than grown from empty, and holds nothing past the call: a
//! caller that wants the answer again over a longer stream either runs
//! it again or knows that nothing it reads has changed — as a
//! [`MessageLog`](crate::MessageLog) knows once it has
//! [settled](crate::MessageLog::settle).

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use crate::log::{self, LogRow};
use crate::message::UpdateMessage;
use crate::prefix::Prefix;
use tdat_timeset::{Micros, Span};

/// Tuning knobs for [`find_transfer_end_ref`].
#[derive(Debug, Clone, PartialEq)]
pub struct MctConfig {
    /// Maximum quiet gap *inside* a transfer. Gaps longer than this end
    /// the transfer at the previous update. The default (60 s) is far
    /// above any timer gap or RTO burst seen in the paper's traces, yet
    /// far below the steady-state inter-burst spacing.
    pub max_gap: Micros,
    /// Fraction of already-seen prefixes an update may carry and still
    /// count as part of the transfer.
    pub dup_tolerance: f64,
    /// Number of consecutive duplicate-heavy updates after which the
    /// transfer is considered over (ended at the last growing update).
    pub max_dup_run: usize,
}

impl Default for MctConfig {
    fn default() -> Self {
        MctConfig {
            max_gap: Micros::from_secs(60),
            dup_tolerance: 0.5,
            max_dup_run: 8,
        }
    }
}

/// Result of table-transfer end estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableTransfer {
    /// The transfer period: session start to estimated end.
    pub span: Span,
    /// Updates attributed to the transfer.
    pub update_count: usize,
    /// Distinct prefixes announced during the transfer.
    pub prefix_count: usize,
}

impl TableTransfer {
    /// Transfer duration.
    pub fn duration(&self) -> Micros {
        self.span.duration()
    }
}

/// What MCT reads of one UPDATE: how many prefixes it announced,
/// whether it withdrew any, and the announced prefixes as the message
/// log's prefix words ([`LogRow::announced`]): `network | len` for a
/// prefix of up to 24 bits, an escape word and the network for a
/// longer one. The set of prefixes seen so far is hot (one membership
/// probe per announced prefix of every update), so it is keyed by those
/// words as they are under a multiplicative hasher instead of hashing
/// the struct field-by-field with SipHash.
pub trait MctUpdate {
    /// Number of announced prefixes.
    fn announced_len(&self) -> usize;
    /// True when the update withdraws nothing.
    fn withdrawn_is_empty(&self) -> bool;
    /// The announced prefixes' words in wire order.
    fn announced_words(&self) -> impl Iterator<Item = u32> + '_;
    /// Prefixes this update and every later one in the stream announce,
    /// or a bound above them (a log row counts its arena's words): the
    /// most the set of seen prefixes can still have to take, which
    /// lets MCT size it once instead of doubling it from empty. Only
    /// sizing reads it, never the result. 0 (the default) when the
    /// source cannot say; the set then grows as it fills.
    fn announced_ahead(&self) -> usize {
        0
    }
}

impl MctUpdate for &UpdateMessage {
    fn announced_len(&self) -> usize {
        self.announced.len()
    }
    fn withdrawn_is_empty(&self) -> bool {
        self.withdrawn.is_empty()
    }
    fn announced_words(&self) -> impl Iterator<Item = u32> + '_ {
        self.announced.iter().flat_map(Prefix::words)
    }
}

impl MctUpdate for LogRow<'_> {
    fn announced_len(&self) -> usize {
        usize::from(self.announced_len)
    }
    fn withdrawn_is_empty(&self) -> bool {
        self.withdrawn == 0
    }
    fn announced_words(&self) -> impl Iterator<Item = u32> + '_ {
        self.announced.iter().copied()
    }
    fn announced_ahead(&self) -> usize {
        self.announced_ahead
    }
}

/// Multiplicative hasher for already-well-distributed prefix words
/// (Fibonacci hashing). Not DoS-hardened — fine here: the set is
/// per-call scratch over a bounded update stream, not a long-lived map
/// keyed by attacker-controlled input.
#[derive(Default)]
struct PackedHasher(u64);

impl std::hash::Hasher for PackedHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by u32 and u64 keys): FNV-1a, a byte
        // at a time.
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_right(23);
    }
}

type PackedSet<K> = HashSet<K, BuildHasherDefault<PackedHasher>>;

/// A prefix as MCT's sets key it: a word as it is, or, for a prefix
/// longer than /24, `network << 8 | len` from its escape word (the
/// length) and the network word after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Word(u32),
    Escaped(u64),
}

/// The keys of the prefixes whose words `words` yields.
fn keys(mut words: impl Iterator<Item = u32>) -> impl Iterator<Item = Key> {
    std::iter::from_fn(move || {
        let word = words.next()?;
        if !log::is_escape(word) {
            return Some(Key::Word(word));
        }
        Some(Key::Escaped(
            u64::from(words.next()?) << 8 | u64::from(word),
        ))
    })
}

/// The prefixes seen so far: prefix words in one set, and the prefixes
/// longer than /24 in a side set, which allocates only once one is
/// inserted.
#[derive(Default)]
struct Seen {
    words: PackedSet<u32>,
    escaped: PackedSet<u64>,
}

impl Seen {
    /// Inserts `key`, answering whether it was new.
    fn insert(&mut self, key: Key) -> bool {
        match key {
            Key::Word(word) => self.words.insert(word),
            Key::Escaped(prefix) => self.escaped.insert(prefix),
        }
    }

    fn len(&self) -> usize {
        self.words.len() + self.escaped.len()
    }
}

/// Makes room in `seen` for an update of `announced` prefixes. When the
/// set is full it grows to hold `min(ahead, 64 × max(len, 256))` more:
/// a table of up to 16 384 routes never rehashes and a larger one
/// rehashes once, while what is reserved past need stays bounded by
/// what was inserted, not by how much churn the stream still holds.
/// With `ahead` unknown (0) the set doubles as it fills.
fn make_room(seen: &mut PackedSet<u32>, announced: usize, ahead: usize) {
    if seen.capacity() - seen.len() < announced {
        let bound = 64 * seen.len().max(256);
        seen.reserve(ahead.min(bound).max(announced));
    }
}

/// How many of `update`'s prefixes are new, once its insert at index
/// `first_repeat` found a prefix already in `seen`; inserts the rest
/// (`rest`). Counted per occurrence, as MCT always has: a prefix the
/// update is first to announce counts at every place it appears in the
/// update, one seen before at none. O(k log k) for k prefixes, and only
/// updates with a repeat come here.
fn count_with_repeats<U: MctUpdate>(
    seen: &mut Seen,
    update: &U,
    first_repeat: usize,
    rest: impl Iterator<Item = Key>,
) -> usize {
    let mut fresh: Vec<Key> = rest.filter(|&key| seen.insert(key)).collect();
    if first_repeat == 0 && fresh.is_empty() {
        return 0;
    }
    fresh.extend(keys(update.announced_words()).take(first_repeat));
    fresh.sort_unstable();
    keys(update.announced_words())
        .filter(|key| fresh.binary_search(key).is_ok())
        .count()
}

/// Estimates where the initial table transfer ends in a timestamped
/// update stream that begins at session establishment (`start`).
///
/// Returns `None` if the stream contains no announcing update. Reads
/// anything MCT can read as updates — borrowed [`UpdateMessage`]s or
/// the rows of a [`MessageLog`](crate::MessageLog) — so callers holding
/// an extraction run MCT without cloning or rebuilding a message. Each
/// announced prefix is inserted once, its `insert` answering whether it
/// is new, and the distinct-prefix count is the set's length.
///
/// # Examples
///
/// ```
/// use tdat_bgp::{find_transfer_end_ref, MctConfig, TableGenerator};
/// use tdat_timeset::Micros;
///
/// let table = TableGenerator::new(1).routes(300).generate();
/// // Table transfer: one update every 10 ms...
/// let mut stream: Vec<_> = table
///     .to_updates()
///     .into_iter()
///     .enumerate()
///     .map(|(i, u)| (Micros::from_millis(10 * i as i64), u))
///     .collect();
/// // ...then steady-state churn re-announcing an old prefix much later.
/// let churn_start = Micros::from_secs(600);
/// let churn = stream[0].1.clone();
/// stream.push((churn_start, churn));
///
/// let updates = stream.iter().map(|(at, update)| (*at, update));
/// let transfer = find_transfer_end_ref(Micros::ZERO, updates, &MctConfig::default()).unwrap();
/// assert_eq!(transfer.prefix_count, 300);
/// assert!(transfer.span.end < churn_start);
/// ```
pub fn find_transfer_end_ref<I, U>(
    start: Micros,
    updates: I,
    config: &MctConfig,
) -> Option<TableTransfer>
where
    I: IntoIterator<Item = (Micros, U)>,
    U: MctUpdate,
{
    let mut seen = Seen::default();
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
        make_room(&mut seen.words, announced, update.announced_ahead());
        let mut prefixes = keys(update.announced_words());
        // Every insert up to the first that finds its prefix there is a
        // new prefix; most updates end here.
        let mut new = prefixes
            .by_ref()
            .take_while(|&key| seen.insert(key))
            .count();
        if new < announced {
            new = count_with_repeats(&mut seen, &update, new, prefixes);
        }
        let dup_frac = 1.0 - new as f64 / announced.max(1) as f64;
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
        for key in keys(update.announced_words()) {
            seen.insert(key);
        }
        prefix_count = seen.len();
    }
    Some(TableTransfer {
        span: Span::new(start, end),
        update_count,
        prefix_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttribute;
    use crate::table::TableGenerator;

    fn stream_of(table: &crate::RoutingTable, spacing_ms: i64) -> Vec<(Micros, UpdateMessage)> {
        table
            .to_updates()
            .into_iter()
            .enumerate()
            .map(|(i, u)| (Micros::from_millis(spacing_ms * i as i64), u))
            .collect()
    }

    /// MCT over `stream` from a session start at zero, under the
    /// default configuration.
    fn mct(stream: &[(Micros, UpdateMessage)]) -> Option<TableTransfer> {
        let updates = stream.iter().map(|(at, update)| (*at, update));
        find_transfer_end_ref(Micros::ZERO, updates, &MctConfig::default())
    }

    #[test]
    fn clean_transfer_detected_exactly() {
        let table = TableGenerator::new(2).routes(400).generate();
        let stream = stream_of(&table, 5);
        let t = mct(&stream).unwrap();
        assert_eq!(t.prefix_count, 400);
        assert_eq!(t.update_count, stream.len());
        assert_eq!(t.span.end, stream.last().unwrap().0);
    }

    #[test]
    fn long_gap_ends_transfer() {
        let table = TableGenerator::new(3).routes(400).generate();
        let mut stream = stream_of(&table, 5);
        // Push the second half two minutes into the future.
        let half = stream.len() / 2;
        let expected_end = stream[half - 1].0;
        for entry in &mut stream[half..] {
            entry.0 += Micros::from_secs(120);
        }
        let t = mct(&stream).unwrap();
        assert_eq!(t.span.end, expected_end);
        assert!(t.prefix_count < 400);
    }

    #[test]
    fn gap_within_tolerance_is_kept() {
        // Timer gaps of hundreds of ms (the paper's Fig. 5) must not
        // split a transfer.
        let table = TableGenerator::new(4).routes(300).generate();
        let mut stream = stream_of(&table, 5);
        let half = stream.len() / 2;
        for entry in &mut stream[half..] {
            entry.0 += Micros::from_millis(400);
        }
        let t = mct(&stream).unwrap();
        assert_eq!(t.update_count, stream.len());
    }

    #[test]
    fn churn_after_transfer_excluded() {
        let table = TableGenerator::new(5).routes(200).generate();
        let mut stream = stream_of(&table, 5);
        let end = stream.last().unwrap().0;
        // Steady-state churn: re-announce old prefixes within max_gap so
        // only the duplicate heuristic can reject them.
        for i in 0..10 {
            let update = stream[i].1.clone();
            stream.push((end + Micros::from_secs(30 + i as i64), update));
        }
        let t = mct(&stream).unwrap();
        assert_eq!(t.span.end, end);
        assert_eq!(t.prefix_count, 200);
    }

    #[test]
    fn empty_or_silent_stream_yields_none() {
        assert_eq!(mct(&[]), None);
        let silent = vec![(
            Micros::from_secs(1),
            UpdateMessage::announce(vec![PathAttribute::Med(1)], vec![]),
        )];
        assert_eq!(mct(&silent), None);
    }

    #[test]
    fn retransmitted_duplicates_inside_transfer_tolerated() {
        let table = TableGenerator::new(6).routes(300).generate();
        let mut stream = stream_of(&table, 5);
        // Duplicate a few updates mid-transfer (as TCP retransmission
        // artifacts appear after pcap2bgp reconstruction).
        let dup = stream[10].clone();
        stream.insert(11, (dup.0 + Micros::from_millis(1), dup.1));
        let t = mct(&stream).unwrap();
        assert_eq!(t.prefix_count, 300);
        assert_eq!(t.span.end, stream.last().unwrap().0);
    }
}
