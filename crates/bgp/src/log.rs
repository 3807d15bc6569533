//! What reassembly keeps of a BGP stream: the flat [`MessageLog`] and
//! the skim decoder that fills it.
//!
//! The capture path reads two facts per message (§II-A): *when* its
//! last byte became readable and *which prefixes* it announced, so MCT
//! can find where the table transfer ends. [`BgpMessage::decode`]
//! builds far more — owned attribute, AS-path and prefix vectors per
//! UPDATE — and a reassembler that kept those trees spent most of its
//! time allocating and freeing what nobody read. The log keeps one
//! 16-byte row per message plus one arena of announced prefixes, and
//! [`MessageLog::skim`] validates every rule `decode` enforces while
//! materialising nothing else, so both accept exactly the same byte
//! strings.
//!
//! [`KeptMessages`] is the one seam between the two: a reassembler is
//! generic over what it keeps, the log by default, whole
//! [`BgpMessage`]s ([`WholeMessages`]) where bytes-faithful messages
//! are the point (MRT export).

use tdat_timeset::Micros;

use crate::attrs::FLAG_EXT_LEN;
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
        self.announced.len()
    }
}

/// One message of the log. The counts are `u16`: a message is at most
/// [`BGP_MAX_MESSAGE_LEN`] bytes and a prefix at least one, and unlike
/// arena offsets they cannot outgrow their width on a long session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    time: Micros,
    type_code: u8,
    announced: u16,
    withdrawn: u16,
}

/// A flat per-connection message log: one row per message (time, wire
/// type code, announced and withdrawn prefix counts) and one arena of
/// every announced prefix in arrival order, packed
/// `network << 8 | len` — the form MCT hashes. Memory is 16 bytes per
/// message plus 8 per announced prefix; nothing else of a message is
/// retained.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageLog {
    rows: Vec<Row>,
    /// Announced prefixes of all rows, concatenated in row order.
    announced: Vec<u64>,
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
/// prefixes to the end, which MCT reads to size its set once
/// ([`MctUpdate::announced_ahead`](crate::MctUpdate::announced_ahead)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRow<'a> {
    /// When the message's last byte became contiguous.
    pub time: Micros,
    /// Wire type code (1 OPEN, 2 UPDATE, 3 NOTIFICATION, 4 KEEPALIVE).
    pub type_code: u8,
    /// The announced prefixes, packed `network << 8 | len` with the
    /// network masked to the length.
    pub announced: &'a [u64],
    /// How many prefixes the message withdrew.
    pub withdrawn: u16,
    /// Prefixes this message and every later one in the log announce.
    pub announced_ahead: usize,
}

impl MessageLog {
    /// Messages in the log.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the log holds no message.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The messages in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = LogRow<'_>> {
        self.head(self.len())
    }

    /// The first `rows` messages (all of them if the log holds fewer),
    /// exactly as [`iter`](Self::iter) yielded them when the log held
    /// only those: `announced_ahead` counts no prefix of a later row.
    fn head(&self, rows: usize) -> impl Iterator<Item = LogRow<'_>> {
        let rows = &self.rows[..rows.min(self.rows.len())];
        let mut arena = if rows.len() == self.rows.len() {
            &self.announced[..]
        } else {
            let end = rows.iter().map(|row| usize::from(row.announced)).sum();
            &self.announced[..end]
        };
        rows.iter().map(move |row| {
            let announced_ahead = arena.len();
            let (announced, rest) = arena.split_at(usize::from(row.announced));
            arena = rest;
            LogRow {
                time: row.time,
                type_code: row.type_code,
                announced,
                withdrawn: row.withdrawn,
                announced_ahead,
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

    /// Appends the row a decoded `message` skims to.
    fn push_message(&mut self, time: Micros, message: &BgpMessage) {
        let (announced, withdrawn) = match message {
            BgpMessage::Update(update) => {
                self.announced
                    .extend(update.announced.iter().map(|p| p.packed()));
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
    }

    /// Skims one message from the front of `buf` into the log: accepts
    /// exactly the byte strings [`BgpMessage::decode`] accepts — marker,
    /// length, type and every body rule, down to per-attribute length
    /// and value checks — and allocates nothing but log growth.
    pub fn skim(&mut self, time: Micros, buf: &mut &[u8]) -> Framed {
        let bytes = *buf;
        if bytes.len() < BGP_HEADER_LEN {
            return Framed::Partial;
        }
        if bytes[..16] != [0xff; 16] {
            return Framed::Rejected;
        }
        let len = usize::from(u16::from_be_bytes([bytes[16], bytes[17]]));
        if !(BGP_HEADER_LEN..=BGP_MAX_MESSAGE_LEN).contains(&len) {
            return Framed::Rejected;
        }
        if bytes.len() < len {
            return Framed::Partial;
        }
        let type_code = bytes[18];
        let body = &bytes[BGP_HEADER_LEN..len];
        let counts = match type_code {
            // OPEN: ten fixed bytes, then the optional parameters their
            // length byte promises.
            1 => (body.len() >= 10 && body.len() - 10 >= usize::from(body[9])).then_some((0, 0)),
            2 => self.skim_update(body),
            3 => (body.len() >= 2).then_some((0, 0)),
            4 => body.is_empty().then_some((0, 0)),
            _ => None,
        };
        let Some((announced, withdrawn)) = counts else {
            return Framed::Rejected;
        };
        self.rows.push(Row {
            time,
            type_code,
            announced,
            withdrawn,
        });
        *buf = &bytes[len..];
        Framed::Kept
    }

    /// Validates an UPDATE body and appends its NLRI to the arena,
    /// returning the (announced, withdrawn) counts; on a reject the
    /// arena is left as it was.
    fn skim_update(&mut self, body: &[u8]) -> Option<(u16, u16)> {
        let (withdrawn, rest) = split_u16_prefixed(body)?;
        let (attributes, nlri) = split_u16_prefixed(rest)?;
        let withdrawn = walk_nlri(withdrawn, |_| ())?;
        skim_attributes(attributes)?;
        let mark = self.announced.len();
        let announced = walk_nlri(nlri, |packed| self.announced.push(packed));
        if announced.is_none() {
            self.announced.truncate(mark);
        }
        Some((announced?, withdrawn))
    }
}

/// Splits `buf` after a big-endian `u16` length and the bytes it counts.
fn split_u16_prefixed(buf: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = buf.split_first_chunk::<2>()?;
    rest.split_at_checked(usize::from(u16::from_be_bytes(*len)))
}

/// Walks NLRI with [`Prefix::decode`](crate::Prefix::decode)'s rules —
/// length byte at most 32, `ceil(len / 8)` address bytes present, host
/// bits masked off — handing each prefix on in packed form.
fn walk_nlri(mut buf: &[u8], mut each: impl FnMut(u64)) -> Option<u16> {
    let mut count = 0u16;
    while let Some((&len, rest)) = buf.split_first() {
        if len > 32 {
            return None;
        }
        let (address, rest) = rest.split_at_checked(usize::from(len).div_ceil(8))?;
        let mut octets = [0u8; 4];
        octets[..address.len()].copy_from_slice(address);
        let mask = u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0);
        let network = u32::from_be_bytes(octets) & mask;
        each(u64::from(network) << 8 | u64::from(len));
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
    use super::*;
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
}
