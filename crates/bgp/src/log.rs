//! What reassembly keeps of a BGP stream: the flat [`MessageLog`] and
//! the skim decoder that fills it.
//!
//! The capture path reads two facts per message (§II-A): *when* its
//! last byte became readable and *which prefixes* it announced, so MCT
//! can find where the table transfer ends. [`BgpMessage::decode`]
//! builds far more — owned attribute, AS-path and prefix vectors per
//! UPDATE — and a reassembler that kept those trees spent most of its
//! time allocating and freeing what nobody read. The log keeps one
//! 4-byte row per message, one time per run of messages stamped alike
//! and one arena of announced prefixes at 4 bytes each (a prefix word,
//! [`LogRow::announced`]; 8 bytes for a prefix longer than /24), and
//! [`MessageLog::skim`] validates every rule `decode` enforces while
//! materialising nothing else, so both accept exactly the same byte
//! strings. The rules are [`skim_message`]'s, which any keeper of
//! valid messages can share: the simulator's collector frames its
//! archive by them too.
//!
//! MCT reads the rows and the arena for one answer, keying its set by
//! the prefix words as they are, and once that
//! answer can no longer change nothing else reads them: the batch pass
//! and a live monitor alike [settle](MessageLog::settle) the log, which
//! keeps MCT's answer and its row count and drops the rest.
//!
//! [`KeptMessages`] is the one seam between the two: a reassembler is
//! generic over what it keeps, the log by default, whole
//! [`BgpMessage`]s ([`WholeMessages`]) where bytes-faithful messages
//! are the point (MRT export).

use std::num::NonZeroU32;

use tdat_timeset::{Micros, Span};

use crate::attrs::FLAG_EXT_LEN;
use crate::mct::{find_transfer_end_ref, MctConfig, TableTransfer};
use crate::message::{BgpMessage, BGP_HEADER_LEN, BGP_MAX_MESSAGE_LEN};

/// The outcome of framing one message from the front of a buffer —
/// [`BgpMessage::decode`]'s three-way contract without the error
/// detail, so a reject allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framed {
    /// A whole valid message was kept and the buffer advanced past it.
    Kept,
    /// The buffer holds only part of a message: wait for more bytes.
    /// Always the answer for fewer than [`BGP_HEADER_LEN`] bytes.
    Partial,
    /// The front of the buffer is not a BGP message. The buffer and
    /// what has been kept so far are untouched.
    Rejected,
}

/// What a reassembler keeps of the messages it frames.
pub trait KeptMessages: Default {
    /// Frames one message from the front of `buf`, stamps it `time`
    /// and keeps it, with [`BgpMessage::decode`]'s contract: partial →
    /// wait, reject → nothing changes, accept → `buf` advances.
    fn keep(&mut self, time: Micros, buf: &mut &[u8]) -> Framed;

    /// Messages kept so far.
    fn len(&self) -> usize;

    /// True when no message has been kept.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total prefixes announced across all kept UPDATEs.
    fn announced_prefixes(&self) -> usize;
}

/// Whole decoded messages with their timestamps — what
/// [`KeptMessages`] keeps when the messages themselves are the product
/// (MRT export, content comparison), at the price of an owned tree per
/// message.
pub type WholeMessages = Vec<(Micros, BgpMessage)>;

impl KeptMessages for WholeMessages {
    fn keep(&mut self, time: Micros, buf: &mut &[u8]) -> Framed {
        match BgpMessage::decode(buf) {
            Ok(Some(message)) => {
                self.push((time, message));
                Framed::Kept
            }
            Ok(None) => Framed::Partial,
            Err(_) => Framed::Rejected,
        }
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn announced_prefixes(&self) -> usize {
        self.iter()
            .map(|(_, message)| match message {
                BgpMessage::Update(update) => update.announced.len(),
                _ => 0,
            })
            .sum()
    }
}

impl KeptMessages for MessageLog {
    fn keep(&mut self, time: Micros, buf: &mut &[u8]) -> Framed {
        self.skim(time, buf)
    }

    fn len(&self) -> usize {
        MessageLog::len(self)
    }

    fn announced_prefixes(&self) -> usize {
        match &self.state {
            State::Open { rows, .. } => Rows::new(rows).map(|(_, row)| row.announced()).sum(),
            State::Settled(_) => 0,
        }
    }
}

/// Bits of each count in a [`Row`]: a message is at most
/// [`BGP_MAX_MESSAGE_LEN`] bytes and a prefix at least one, so an
/// UPDATE announces or withdraws at most 4 073 prefixes, and neither
/// count reaches `1 << COUNT_BITS`.
const COUNT_BITS: u32 = 12;
/// The largest count a row holds.
const COUNT_MAX: u32 = (1 << COUNT_BITS) - 1;
/// Where a row keeps its wire type code (1 to 4, three bits).
const TYPE_SHIFT: u32 = 2 * COUNT_BITS;
/// Set in a row whose announced prefixes take more arena words than
/// there are of them: one of them is longer than /24 (an escape).
const ESCAPED: u32 = 1 << 27;
/// Set in the first and last word of a run's trailer, never in a row.
const TAG: u32 = 1 << 31;
/// Words in a run's trailer: the tag with the message count's low 31
/// bits, the time's low and high halves, the tag with the count's next
/// 31 bits.
const TRAILER: usize = 4;

/// One message of the log in one word: the wire type code in bits
/// 24–26, the withdrawn count in bits 12–23, the announced count in
/// bits 0–11, and [`ESCAPED`]. Bit 31 is clear, so a row never reads as
/// a trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row(u32);

impl Row {
    fn new(type_code: u8, announced: usize, withdrawn: usize, escaped: bool) -> Row {
        debug_assert!(type_code < 8, "type code {type_code}");
        debug_assert!(announced <= COUNT_MAX as usize && withdrawn <= COUNT_MAX as usize);
        Row(u32::from(type_code) << TYPE_SHIFT
            | if escaped { ESCAPED } else { 0 }
            | (withdrawn as u32) << COUNT_BITS
            | announced as u32)
    }

    fn type_code(self) -> u8 {
        (self.0 >> TYPE_SHIFT & 0b111) as u8
    }

    fn announced(self) -> usize {
        (self.0 & COUNT_MAX) as usize
    }

    /// How many words at the front of `arena` the row's announced
    /// prefixes take: one each, unless the row is [`ESCAPED`].
    fn words(self, arena: &[u32]) -> usize {
        let prefixes = self.announced();
        if self.0 & ESCAPED == 0 {
            return prefixes;
        }
        (0..prefixes).fold(0, |at, _| at + 1 + usize::from(is_escape(arena[at])))
    }

    fn withdrawn(self) -> u16 {
        (self.0 >> COUNT_BITS & COUNT_MAX) as u16
    }

    /// Whether MCT counts the row: an UPDATE that announces or
    /// withdraws a prefix. MCT skips every other row, and only counted
    /// rows move its gap check.
    fn counted(self) -> bool {
        self.type_code() == 2 && (self.announced() > 0 || self.withdrawn() > 0)
    }
}

/// The trailer that ends a run of rows stamped `time`, the last of
/// them the log's `messages`-th.
fn trailer(messages: usize, time: Micros) -> [u32; TRAILER] {
    let (messages, bits) = (messages as u64, time.0 as u64);
    [
        TAG | (messages as u32 & !TAG),
        bits as u32,
        (bits >> 32) as u32,
        TAG | (messages >> 31) as u32,
    ]
}

/// The messages up to and including a run, and the run's time.
fn read_trailer(trailer: &[u32; TRAILER]) -> (usize, Micros) {
    let [low_count, low, high, high_count] = *trailer;
    let messages = u64::from(high_count & !TAG) << 31 | u64::from(low_count & !TAG);
    (
        messages as usize,
        Micros((u64::from(high) << 32 | u64::from(low)) as i64),
    )
}

/// A log's rows from the back, each with its run's time.
fn rows_back(mut words: &[u32]) -> impl Iterator<Item = (Micros, Row)> + '_ {
    let mut time = Micros::ZERO;
    std::iter::from_fn(move || loop {
        let (&word, rest) = words.split_last()?;
        if word & TAG == 0 {
            words = rest;
            return Some((time, Row(word)));
        }
        let (rest, trailer) = words.split_last_chunk::<TRAILER>()?;
        time = read_trailer(trailer).1;
        words = rest;
    })
}

/// A log's rows in arrival order, each with its run's time. A run is
/// found by reading on to its trailer, so each word is read twice.
#[derive(Debug, Clone)]
struct Rows<'a> {
    /// The words after the current run's trailer.
    words: &'a [u32],
    /// What is left of the current run.
    run: std::slice::Iter<'a, u32>,
    time: Micros,
}

impl<'a> Rows<'a> {
    fn new(words: &'a [u32]) -> Rows<'a> {
        Rows {
            words,
            run: [].iter(),
            time: Micros::ZERO,
        }
    }
}

impl Iterator for Rows<'_> {
    type Item = (Micros, Row);

    fn next(&mut self) -> Option<(Micros, Row)> {
        if self.run.len() == 0 {
            let end = self.words.iter().position(|word| word & TAG != 0)?;
            let (run, rest) = self.words.split_at(end);
            let (trailer, rest) = rest.split_first_chunk::<TRAILER>()?;
            self.time = read_trailer(trailer).1;
            self.run = run.iter();
            self.words = rest;
        }
        self.run.next().map(|&word| (self.time, Row(word)))
    }
}

/// The longest prefix whose masked network leaves the low octet of its
/// word zero, free to hold the length.
const WORD_LEN_MAX: u8 = 24;

/// A prefix as the arena keeps it, in the words it takes (one or two):
/// a prefix of up to 24 bits is one word, the masked network with the
/// length in its low octet (`network | len`); a longer one is an escape
/// word, the length alone, followed by the whole network. The low octet
/// of a prefix's first word is its length either way, so one above 24
/// marks an escape.
pub(crate) fn prefix_words(network: u32, len: u8) -> ([u32; 2], usize) {
    if len <= WORD_LEN_MAX {
        ([network | u32::from(len), 0], 1)
    } else {
        ([u32::from(len), network], 2)
    }
}

/// Whether `word`, the first word of a prefix, is an escape: the prefix
/// is longer than /24, `word` is its length and the next word its
/// network.
pub(crate) fn is_escape(word: u32) -> bool {
    word as u8 > WORD_LEN_MAX
}

/// Appends `network/len`'s words to an arena.
fn push_prefix(arena: &mut Vec<u32>, network: u32, len: u8) {
    match prefix_words(network, len) {
        ([word, _], 1) => arena.push(word),
        (words, _) => arena.extend_from_slice(&words),
    }
}

/// A flat per-connection message log: one word per message (wire type
/// code, announced and withdrawn prefix counts), one time per run of
/// messages stamped alike, and one arena of every announced prefix in
/// arrival order, a word each (the masked network with the length in
/// its low octet; two words for a prefix longer than /24, see
/// [`LogRow::announced`]). Until it is [settled](Self::settle), memory
/// is 4 bytes per message, 16 per run and 4 per announced prefix (8 per
/// prefix longer than /24); a segment's messages share its time, so a
/// table transfer's runs are some twenty messages long. Nothing else of
/// a message is retained. A settled log holds nothing beyond its own 48
/// bytes, however many messages it counts after: it keeps MCT's answer
/// and a row count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageLog {
    state: State,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    /// Every row, each run of rows stamped alike followed by its
    /// trailer, and the announced prefixes of all rows concatenated in
    /// row order: what MCT reads. The last trailer counts every
    /// message, so the length is read in O(1); a message stamped as the
    /// run before it takes that run's trailer's place and pushes the
    /// trailer on, and one stamped anew starts a run.
    Open { rows: Vec<u32>, announced: Vec<u32> },
    /// MCT's answer, which no later row can change. Fits beside the
    /// open arm's niche, so an open log stays two `Vec`s wide.
    Settled(Settled),
}

impl Default for State {
    fn default() -> State {
        State::Open {
            rows: Vec::new(),
            announced: Vec::new(),
        }
    }
}

/// What a settled log keeps: how many messages it has counted, and MCT's
/// answer for any session start.
///
/// MCT reads the session start twice: in the gap check of the first
/// counted UPDATE, and as the transfer's start. So the scan is run once
/// from that UPDATE's own time, and any start is answered from it:
/// `None` when that UPDATE lies more than `max_gap` after the start,
/// the stored transfer from the start on otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Settled {
    /// Messages counted, before settling and since.
    rows: usize,
    /// Messages the log held when it settled: no answer is asked of
    /// fewer.
    settled_rows: usize,
    /// When the first counted UPDATE arrived.
    first: Micros,
    /// MCT's answer for a session that started at `first`.
    transfer: Option<SettledTransfer>,
}

/// A [`TableTransfer`] less its start, in 16 bytes so that [`Settled`]
/// fits beside an open log's niche.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SettledTransfer {
    end: Micros,
    /// At least one: a transfer ends at a counted UPDATE.
    update_count: NonZeroU32,
    prefix_count: u32,
}

impl SettledTransfer {
    /// `None` for a transfer whose counts outgrow 32 bits: such a log
    /// stays open.
    fn of(transfer: &TableTransfer) -> Option<SettledTransfer> {
        Some(SettledTransfer {
            end: transfer.span.end,
            update_count: NonZeroU32::new(u32::try_from(transfer.update_count).ok()?)?,
            prefix_count: u32::try_from(transfer.prefix_count).ok()?,
        })
    }
}

/// The log that [`WholeMessages`] skim to: the bridge from one
/// kept-message type to the other, which is how the two are compared.
impl<'a> FromIterator<&'a (Micros, BgpMessage)> for MessageLog {
    fn from_iter<I: IntoIterator<Item = &'a (Micros, BgpMessage)>>(messages: I) -> MessageLog {
        let mut log = MessageLog::default();
        for (time, message) in messages {
            log.push_message(*time, message);
        }
        log
    }
}

/// A borrowed view of one message of a [`MessageLog`], with what is
/// left of the log from it on: the length of the arena from this row's
/// prefix words to the end, which MCT reads to size its set once
/// ([`MctUpdate::announced_ahead`](crate::MctUpdate::announced_ahead)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRow<'a> {
    /// When the message's last byte became contiguous.
    pub time: Micros,
    /// Wire type code (1 OPEN, 2 UPDATE, 3 NOTIFICATION, 4 KEEPALIVE).
    pub type_code: u8,
    /// The announced prefixes as prefix words, one word a prefix: the
    /// network masked to the length, with the length in the low octet
    /// (`network | len`). A prefix longer than /24 leaves no octet for
    /// its length and takes two words, an escape word (the length, so
    /// its low octet is above 24) and then the whole network. MCT keys
    /// its set by these words as they are
    /// ([`MctUpdate::announced_words`](crate::MctUpdate::announced_words)).
    pub announced: &'a [u32],
    /// How many prefixes the message withdrew.
    pub withdrawn: u16,
    /// Prefix words this message and every later one in the log take:
    /// the prefixes they announce, and one word more for each longer
    /// than /24.
    pub announced_ahead: usize,
    /// How many prefixes the message announced: the prefixes in
    /// `announced`
    /// ([`MctUpdate::announced_len`](crate::MctUpdate::announced_len)).
    pub(crate) announced_len: u16,
}

impl MessageLog {
    /// Messages in the log, settled or not.
    pub fn len(&self) -> usize {
        match &self.state {
            State::Open { rows, .. } => rows
                .last_chunk::<TRAILER>()
                .map_or(0, |trailer| read_trailer(trailer).0),
            State::Settled(settled) => settled.rows,
        }
    }

    /// True when the log holds no message.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The messages in arrival order; none once the log has settled,
    /// since it keeps none.
    pub fn iter(&self) -> impl Iterator<Item = LogRow<'_>> {
        self.head(self.len())
    }

    /// The first `rows` messages (all of them if the log holds fewer),
    /// exactly as [`iter`](Self::iter) yielded them when the log held
    /// only those: `announced_ahead` counts no prefix of a later row.
    fn head(&self, rows: usize) -> impl Iterator<Item = LogRow<'_>> {
        let (words, announced): (&[u32], &[u32]) = match &self.state {
            State::Open { rows, announced } => (rows, announced),
            State::Settled(_) => (&[], &[]),
        };
        let all = self.len();
        let rows = rows.min(all);
        let mut arena = if rows == all {
            announced
        } else {
            let end = Rows::new(words)
                .take(rows)
                .fold(0, |end, (_, row)| end + row.words(&announced[end..]));
            &announced[..end]
        };
        Rows::new(words).take(rows).map(move |(time, row)| {
            let announced_ahead = arena.len();
            let (announced, rest) = arena.split_at(row.words(arena));
            arena = rest;
            LogRow {
                time,
                type_code: row.type_code(),
                announced,
                withdrawn: row.withdrawn(),
                announced_ahead,
                announced_len: row.announced() as u16,
            }
        })
    }

    /// The timestamped UPDATEs in arrival order — the MCT input.
    pub fn updates(&self) -> impl Iterator<Item = (Micros, LogRow<'_>)> {
        self.updates_in_first(self.len())
    }

    /// The timestamped UPDATEs among the first `rows` messages, as
    /// [`updates`](Self::updates) yielded them when the log held only
    /// those. A log is only ever appended to, so this is the MCT input
    /// as of that moment, read later.
    pub fn updates_in_first(&self, rows: usize) -> impl Iterator<Item = (Micros, LogRow<'_>)> {
        self.head(rows)
            .filter(|row| row.type_code == 2)
            .map(|row| (row.time, row))
    }

    /// MCT's table transfer over the UPDATEs among the first `rows`
    /// messages, for a session that started at `start`: what
    /// [`find_transfer_end_ref`] finds over
    /// [`updates_in_first(rows)`](Self::updates_in_first) while the log
    /// is open, and answered from what it kept once it has settled —
    /// for as many rows as it held then, or more, and under the
    /// `config` it settled with.
    pub fn transfer_end(
        &self,
        start: Micros,
        rows: usize,
        config: &MctConfig,
    ) -> Option<TableTransfer> {
        let settled = match &self.state {
            State::Open { .. } => {
                return find_transfer_end_ref(start, self.updates_in_first(rows), config)
            }
            State::Settled(settled) => settled,
        };
        debug_assert!(
            rows >= settled.settled_rows,
            "asked about {rows} rows of a log settled at {}",
            settled.settled_rows
        );
        if settled.first - start > config.max_gap {
            return None;
        }
        let transfer = settled.transfer?;
        Some(TableTransfer {
            span: Span::new(start, transfer.end),
            update_count: transfer.update_count.get() as usize,
            prefix_count: transfer.prefix_count as usize,
        })
    }

    /// When the last UPDATE that announced or withdrew a prefix arrived,
    /// for a log that [`settle`](Self::settle) may yet settle: `None`
    /// once it has settled, and while it has announced nothing. The log
    /// settles once the clock lies more than `max_gap` past this time.
    ///
    /// Read from the back, up to that UPDATE: the rows after it are the
    /// ones MCT skips, KEEPALIVEs since it, and they are few unless the
    /// log is due to settle anyway. A log that has announced nothing
    /// answers at once.
    pub fn last_counted(&self) -> Option<Micros> {
        let State::Open { rows, announced } = &self.state else {
            return None;
        };
        if announced.is_empty() {
            return None;
        }
        rows_back(rows)
            .find(|(_, row)| row.counted())
            .map(|(last, _)| last)
    }

    /// Settles the log if MCT's answer can no longer change, and
    /// returns whether it did so now.
    ///
    /// `now` bounds the time of every row still to come. Once it lies
    /// more than `config.max_gap` past the
    /// [last UPDATE that announced or withdrew a prefix](Self::last_counted),
    /// any later such UPDATE fails MCT's gap check and ends the scan, and
    /// every other row is skipped: the answer is final. The log then runs
    /// MCT once, keeps the answer
    /// ([`transfer_end`](Self::transfer_end) reads it) and frees its rows
    /// and prefix arena; from then on it only validates and counts
    /// messages, and [`iter`](Self::iter) yields none. A log that
    /// announced nothing is left open: MCT finds no transfer in it, and
    /// it holds no arena.
    pub fn settle(&mut self, now: Micros, config: &MctConfig) -> bool {
        let Some(last) = self.last_counted() else {
            return false;
        };
        if now - last <= config.max_gap {
            return false;
        }
        let State::Open { rows, .. } = &self.state else {
            return false;
        };
        let Some((first, _)) = Rows::new(rows).find(|(_, row)| row.counted()) else {
            return false;
        };
        let transfer = match find_transfer_end_ref(first, self.updates(), config) {
            Some(transfer) => match SettledTransfer::of(&transfer) {
                Some(kept) => Some(kept),
                None => return false,
            },
            None => None,
        };
        let rows = self.len();
        self.state = State::Settled(Settled {
            rows,
            settled_rows: rows,
            first,
            transfer,
        });
        true
    }

    /// Words in the prefix arena; none once the log has settled.
    fn arena_len(&self) -> usize {
        match &self.state {
            State::Open { announced, .. } => announced.len(),
            State::Settled(_) => 0,
        }
    }

    /// Logs one message's row, stamped `time`: kept while the log is
    /// open, counted once it has settled.
    fn push_row(&mut self, time: Micros, row: Row) {
        let rows = match &mut self.state {
            State::Open { rows, .. } => rows,
            State::Settled(settled) => {
                settled.rows += 1;
                return;
            }
        };
        let (messages, at) = match rows.last_chunk::<TRAILER>() {
            Some(last) => {
                let (messages, last_time) = read_trailer(last);
                let at = rows.len() - if last_time == time { TRAILER } else { 0 };
                (messages, at)
            }
            None => (0, 0),
        };
        rows.truncate(at);
        rows.push(row.0);
        rows.extend_from_slice(&trailer(messages + 1, time));
    }

    /// Appends the row a decoded `message` skims to.
    ///
    /// # Panics
    ///
    /// If `message` is an UPDATE that announces or withdraws more
    /// prefixes than a row's count holds (4 095), which only a message
    /// built rather than decoded can do: one on the wire has room for
    /// 4 073.
    fn push_message(&mut self, time: Micros, message: &BgpMessage) {
        let words = self.arena_len();
        let (announced, withdrawn) = match message {
            BgpMessage::Update(update) => {
                let counts = (update.announced.len(), update.withdrawn.len());
                assert!(
                    counts.0 <= COUNT_MAX as usize && counts.1 <= COUNT_MAX as usize,
                    "an UPDATE of {} announced and {} withdrawn prefixes is larger than \
                     a BGP message can be",
                    counts.0,
                    counts.1
                );
                if let State::Open { announced, .. } = &mut self.state {
                    for prefix in &update.announced {
                        push_prefix(announced, prefix.network().into(), prefix.len());
                    }
                }
                counts
            }
            _ => (0, 0),
        };
        let escaped = self.arena_len() - words > announced;
        let row = Row::new(message.type_code(), announced, withdrawn, escaped);
        self.push_row(time, row);
    }

    /// Skims one message from the front of `buf` into the log: accepts
    /// exactly the byte strings [`BgpMessage::decode`] accepts, by
    /// [`skim_message`]'s rules, and allocates nothing but log growth.
    pub fn skim(&mut self, time: Micros, buf: &mut &[u8]) -> Framed {
        let bytes = *buf;
        let words = self.arena_len();
        let skim = match &mut self.state {
            State::Open { announced, .. } => {
                let skim = skim_message(bytes, |network, len| push_prefix(announced, network, len));
                if skim == Skim::Rejected {
                    announced.truncate(words);
                }
                skim
            }
            State::Settled(_) => skim_message(bytes, |_, _| ()),
        };
        let message = match skim {
            Skim::Whole(message) => message,
            Skim::Partial => return Framed::Partial,
            Skim::Rejected => return Framed::Rejected,
        };
        let escaped = self.arena_len() - words > message.announced;
        self.push_row(
            time,
            Row::new(
                message.type_code,
                message.announced,
                message.withdrawn,
                escaped,
            ),
        );
        *buf = &bytes[message.len..];
        Framed::Kept
    }
}

/// What [`skim_message`] makes of the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skim {
    /// A whole valid message.
    Whole(Skimmed),
    /// Only part of a message: wait for more bytes. Always the answer
    /// for fewer than [`BGP_HEADER_LEN`] bytes.
    Partial,
    /// Not a BGP message.
    Rejected,
}

/// One whole message [`skim_message`] accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Skimmed {
    /// Its wire length, header included.
    pub len: usize,
    /// Its wire type code (1 OPEN, 2 UPDATE, 3 NOTIFICATION, 4
    /// KEEPALIVE).
    pub type_code: u8,
    /// How many prefixes it announces.
    pub announced: usize,
    /// How many prefixes it withdraws.
    pub withdrawn: usize,
}

/// Frames one message at the front of `bytes` and validates it by every
/// rule [`BgpMessage::decode`] enforces — marker, length, type and every
/// body rule, down to per-attribute length and value checks — so that
/// both accept, wait on and reject exactly the same byte strings, while
/// this builds nothing. `announced` is handed each announced prefix's
/// masked network and length in wire order; it may have been handed
/// some when the message turns out [`Skim::Rejected`].
pub fn skim_message(bytes: &[u8], announced: impl FnMut(u32, u8)) -> Skim {
    if bytes.len() < BGP_HEADER_LEN {
        return Skim::Partial;
    }
    if bytes[..16] != [0xff; 16] {
        return Skim::Rejected;
    }
    let len = usize::from(u16::from_be_bytes([bytes[16], bytes[17]]));
    if !(BGP_HEADER_LEN..=BGP_MAX_MESSAGE_LEN).contains(&len) {
        return Skim::Rejected;
    }
    if bytes.len() < len {
        return Skim::Partial;
    }
    let type_code = bytes[18];
    let body = &bytes[BGP_HEADER_LEN..len];
    let counts = match type_code {
        // OPEN: ten fixed bytes, then the optional parameters their
        // length byte promises.
        1 => (body.len() >= 10 && body.len() - 10 >= usize::from(body[9])).then_some((0, 0)),
        2 => skim_update(body, announced),
        3 => (body.len() >= 2).then_some((0, 0)),
        4 => body.is_empty().then_some((0, 0)),
        _ => None,
    };
    match counts {
        Some((announced, withdrawn)) => Skim::Whole(Skimmed {
            len,
            type_code,
            announced,
            withdrawn,
        }),
        None => Skim::Rejected,
    }
}

/// Validates an UPDATE body, handing its NLRI to `announced`, and
/// returns the (announced, withdrawn) counts.
fn skim_update(body: &[u8], announced: impl FnMut(u32, u8)) -> Option<(usize, usize)> {
    let (withdrawn, rest) = split_u16_prefixed(body)?;
    let (attributes, nlri) = split_u16_prefixed(rest)?;
    let withdrawn = walk_nlri(withdrawn, |_, _| ())?;
    skim_attributes(attributes)?;
    Some((walk_nlri(nlri, announced)?, withdrawn))
}

/// Splits `buf` after a big-endian `u16` length and the bytes it counts.
fn split_u16_prefixed(buf: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = buf.split_first_chunk::<2>()?;
    rest.split_at_checked(usize::from(u16::from_be_bytes(*len)))
}

/// Walks NLRI with [`Prefix::decode`](crate::Prefix::decode)'s rules —
/// length byte at most 32, `ceil(len / 8)` address bytes present, host
/// bits masked off — handing on each prefix's masked network and length.
fn walk_nlri(mut buf: &[u8], mut each: impl FnMut(u32, u8)) -> Option<usize> {
    let mut count = 0;
    while let Some((&len, rest)) = buf.split_first() {
        if len > 32 {
            return None;
        }
        let (address, rest) = rest.split_at_checked(usize::from(len).div_ceil(8))?;
        let mut octets = [0u8; 4];
        octets[..address.len()].copy_from_slice(address);
        let mask = u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0);
        let network = u32::from_be_bytes(octets) & mask;
        each(network, len);
        buf = rest;
        count += 1;
    }
    Some(count)
}

/// Validates a path-attribute block with
/// [`PathAttribute::decode`](crate::PathAttribute::decode)'s rules:
/// header and (extended) length present, value bytes present, and per
/// type code the same length and value constraints.
fn skim_attributes(mut buf: &[u8]) -> Option<()> {
    while !buf.is_empty() {
        let (&[flags, type_code, short_len], mut rest) = buf.split_first_chunk::<3>()?;
        let mut vlen = usize::from(short_len);
        if flags & FLAG_EXT_LEN != 0 {
            let (&low, after) = rest.split_first()?;
            vlen = vlen << 8 | usize::from(low);
            rest = after;
        }
        let (value, rest) = rest.split_at_checked(vlen)?;
        let valid = match type_code {
            1 => matches!(value, [0..=2]),
            2 => skim_segments(value, 2, |kind| kind == 1 || kind == 2),
            3..=5 => vlen == 4,
            6 => vlen == 0,
            7 => vlen == 6,
            8 => vlen % 4 == 0,
            17 => skim_segments(value, 4, |kind| kind == 2),
            _ => true,
        };
        if !valid {
            return None;
        }
        buf = rest;
    }
    Some(())
}

/// Validates AS_PATH (`asn_width` 2) or AS4_PATH (4) segments: a kind
/// and count byte each, `count` ASNs present, kind allowed.
fn skim_segments(mut value: &[u8], asn_width: usize, kind_ok: impl Fn(u8) -> bool) -> bool {
    while !value.is_empty() {
        let Some((&[kind, count], rest)) = value.split_first_chunk::<2>() else {
            return false;
        };
        let Some((_, rest)) = rest.split_at_checked(usize::from(count) * asn_width) else {
            return false;
        };
        if !kind_ok(kind) {
            return false;
        }
        value = rest;
    }
    true
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use crate::message::UpdateMessage;
    use crate::prefix::Prefix;
    use crate::table::TableGenerator;

    #[test]
    fn skim_logs_what_decode_builds() {
        let table = TableGenerator::new(9).routes(500).generate();
        let mut stream = BgpMessage::Keepalive.to_bytes();
        stream.extend(table.to_update_stream());
        let mut log = MessageLog::default();
        let mut whole = WholeMessages::default();
        let (mut a, mut b) = (&stream[..], &stream[..]);
        while log.keep(Micros(7), &mut a) == Framed::Kept {
            assert_eq!(whole.keep(Micros(7), &mut b), Framed::Kept);
            assert_eq!(a.len(), b.len());
        }
        assert!(a.is_empty());
        assert_eq!(log.len(), whole.len());
        assert_eq!(log.announced_prefixes(), 500);
        assert_eq!(whole.announced_prefixes(), 500);
        assert_eq!(log.updates().count(), log.len() - 1);
        assert_eq!(log, whole.iter().collect());
    }

    #[test]
    fn the_first_rows_read_as_the_log_that_held_only_them() {
        let table = TableGenerator::new(4).routes(300).generate();
        let mut messages: WholeMessages = table
            .to_updates()
            .into_iter()
            .enumerate()
            .map(|(i, update)| (Micros(i as i64), BgpMessage::Update(update)))
            .collect();
        messages.insert(3, (Micros(2), BgpMessage::Keepalive));
        let log: MessageLog = messages.iter().collect();
        for rows in 0..=log.len() + 1 {
            let earlier: MessageLog = messages.iter().take(rows).collect();
            assert!(
                log.updates_in_first(rows).eq(earlier.updates()),
                "first {rows} rows"
            );
        }
    }

    #[test]
    fn rejected_update_leaves_the_log_untouched() {
        // Two valid /24s, then a prefix length of 33.
        let nlri = [24, 10, 0, 1, 24, 10, 0, 2, 33, 1, 2, 3, 4, 5];
        let mut wire = vec![0xff; 16];
        wire.extend_from_slice(&((BGP_HEADER_LEN + 4 + nlri.len()) as u16).to_be_bytes());
        wire.extend_from_slice(&[2, 0, 0, 0, 0]);
        wire.extend_from_slice(&nlri);
        let mut log = MessageLog::default();
        let mut keepalive = &BgpMessage::Keepalive.to_bytes()[..];
        assert_eq!(log.skim(Micros(1), &mut keepalive), Framed::Kept);
        let before = log.clone();
        let mut buf = &wire[..];
        assert_eq!(log.skim(Micros(2), &mut buf), Framed::Rejected);
        assert_eq!(buf.len(), wire.len());
        assert_eq!(log, before);
        assert!(BgpMessage::decode(&mut &wire[..]).is_err());
    }

    #[test]
    fn a_trailer_reads_back_any_count_and_time() {
        let counts = [1, (1 << 31) - 1, 1 << 31, (1 << 40) + 7];
        let times = [i64::MIN, -1, 0, 1 << 31, (1 << 32) - 1, i64::MAX];
        for messages in counts {
            for time in times.map(Micros) {
                let words = trailer(messages, time);
                assert_eq!(read_trailer(&words), (messages, time));
                assert!(words[0] & TAG != 0 && words[TRAILER - 1] & TAG != 0);
            }
        }
    }

    /// An UPDATE of `count` /0s, announced or withdrawn, with no
    /// attributes: 4 073 of them fill a 4 096-byte message.
    fn full_update(count: usize, withdraw: bool) -> BgpMessage {
        let all = vec![Prefix::new(Ipv4Addr::UNSPECIFIED, 0).unwrap(); count];
        let (withdrawn, announced) = if withdraw {
            (all, Vec::new())
        } else {
            (Vec::new(), all)
        };
        BgpMessage::Update(UpdateMessage {
            withdrawn,
            attributes: Vec::new(),
            announced,
        })
    }

    #[test]
    fn the_largest_updates_read_back_their_exact_counts() {
        for withdraw in [false, true] {
            let message = full_update(4_073, withdraw);
            let wire = message.to_bytes();
            assert_eq!(wire.len(), BGP_MAX_MESSAGE_LEN);
            let mut log = MessageLog::default();
            assert_eq!(log.skim(Micros(1), &mut &wire[..]), Framed::Kept);
            let (_, row) = log.updates().next().expect("one UPDATE");
            let (announced, withdrawn) = if withdraw { (0, 4_073) } else { (4_073, 0) };
            assert_eq!((row.announced.len(), row.withdrawn), (announced, withdrawn));
            assert_eq!(log.announced_prefixes(), announced);
            assert_eq!(log, [(Micros(1), message)].iter().collect());
        }
    }

    #[test]
    #[should_panic(expected = "larger than a BGP message can be")]
    fn a_built_update_past_the_count_width_is_refused() {
        let message = full_update(4_096, false);
        let _: MessageLog = [(Micros(1), message)].iter().collect();
    }
}
