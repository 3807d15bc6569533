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

use std::collections::HashSet;

use crate::log::LogRow;
use crate::message::UpdateMessage;
use crate::prefix::Prefix;
use tdat_timeset::{Micros, Span};

/// Tuning knobs for [`find_transfer_end`].
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

/// Estimates where the initial table transfer ends in a timestamped
/// update stream that begins at session establishment (`start`).
///
/// Returns `None` if the stream contains no announcing update.
///
/// # Examples
///
/// ```
/// use tdat_bgp::{find_transfer_end, MctConfig, TableGenerator};
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
/// let transfer = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
/// assert_eq!(transfer.prefix_count, 300);
/// assert!(transfer.span.end < churn_start);
/// ```
pub fn find_transfer_end(
    start: Micros,
    updates: &[(Micros, UpdateMessage)],
    config: &MctConfig,
) -> Option<TableTransfer> {
    find_transfer_end_ref(start, updates.iter().map(|(t, u)| (*t, u)), config)
}

/// What MCT reads of one UPDATE: how many prefixes it announced,
/// whether it withdrew any, and the announced prefixes packed into one
/// word each (`network << 8 | len`). The set of prefixes seen so far is
/// hot (one membership probe per announced prefix of every update), so
/// it is keyed by that packed form under a multiplicative hasher
/// instead of hashing the struct field-by-field with SipHash.
pub trait MctUpdate {
    /// Number of announced prefixes.
    fn announced_len(&self) -> usize;
    /// True when the update withdraws nothing.
    fn withdrawn_is_empty(&self) -> bool;
    /// The announced prefixes in wire order, packed.
    fn packed_announced(&self) -> impl Iterator<Item = u64> + '_;
}

impl MctUpdate for &UpdateMessage {
    fn announced_len(&self) -> usize {
        self.announced.len()
    }
    fn withdrawn_is_empty(&self) -> bool {
        self.withdrawn.is_empty()
    }
    fn packed_announced(&self) -> impl Iterator<Item = u64> + '_ {
        self.announced.iter().map(Prefix::packed)
    }
}

impl MctUpdate for LogRow<'_> {
    fn announced_len(&self) -> usize {
        self.announced.len()
    }
    fn withdrawn_is_empty(&self) -> bool {
        self.withdrawn == 0
    }
    fn packed_announced(&self) -> impl Iterator<Item = u64> + '_ {
        self.announced.iter().copied()
    }
}

/// Multiplicative hasher for already-well-distributed packed prefixes
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
        // Generic fallback (unused by u64 keys): FNV-1a.
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_right(23);
    }
}

type PackedSet = HashSet<u64, std::hash::BuildHasherDefault<PackedHasher>>;

/// [`find_transfer_end`] over anything MCT can read as updates —
/// borrowed [`UpdateMessage`]s or the rows of a
/// [`MessageLog`](crate::MessageLog) — so callers holding an extraction
/// run MCT without cloning or rebuilding a message. The distinct-prefix
/// count is maintained inline during the single scan instead of
/// re-counting in a second pass.
pub fn find_transfer_end_ref<I, U>(
    start: Micros,
    updates: I,
    config: &MctConfig,
) -> Option<TableTransfer>
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

    #[test]
    fn clean_transfer_detected_exactly() {
        let table = TableGenerator::new(2).routes(400).generate();
        let stream = stream_of(&table, 5);
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
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
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
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
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
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
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
        assert_eq!(t.span.end, end);
        assert_eq!(t.prefix_count, 200);
    }

    #[test]
    fn empty_or_silent_stream_yields_none() {
        assert_eq!(
            find_transfer_end(Micros::ZERO, &[], &MctConfig::default()),
            None
        );
        let silent = vec![(
            Micros::from_secs(1),
            UpdateMessage::announce(vec![PathAttribute::Med(1)], vec![]),
        )];
        assert_eq!(
            find_transfer_end(Micros::ZERO, &silent, &MctConfig::default()),
            None
        );
    }

    #[test]
    fn retransmitted_duplicates_inside_transfer_tolerated() {
        let table = TableGenerator::new(6).routes(300).generate();
        let mut stream = stream_of(&table, 5);
        // Duplicate a few updates mid-transfer (as TCP retransmission
        // artifacts appear after pcap2bgp reconstruction).
        let dup = stream[10].clone();
        stream.insert(11, (dup.0 + Micros::from_millis(1), dup.1));
        let t = find_transfer_end(Micros::ZERO, &stream, &MctConfig::default()).unwrap();
        assert_eq!(t.prefix_count, 300);
        assert_eq!(t.span.end, stream.last().unwrap().0);
    }
}
