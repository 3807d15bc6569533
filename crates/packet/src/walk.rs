//! The one pcap record walk under [`PcapReader`](crate::PcapReader),
//! [`MmapReader`](crate::MmapReader), [`LossyReader`](crate::LossyReader)
//! and [`PcapFollower`](crate::PcapFollower).
//!
//! A [`Walker`] owns the format state a capture's global header and
//! earlier records establish — byte order, timestamp resolution, link
//! type, the trace epoch, the last whole-second timestamp — and steps
//! over *the bytes available so far* from a committed position. A step
//! answers one of three things: a record, *need more bytes*, or
//! *implausible header*. Everything else is source or policy:
//!
//! * A [`Source`] supplies the bytes. A mapping or slice is complete
//!   and never refills; a [`Window`] is a refillable read buffer over
//!   any `Read`; the follower's source is the same window over a
//!   growing file, where "no more bytes" means *not yet* rather than
//!   *end*.
//! * A policy decides what the two non-record answers mean.
//!   [`Walker::next_strict`] turns them into the strict readers'
//!   errors; [`Walker::next_lossy`] resynchronizes past garbage within
//!   a byte budget and leaves the verdict on a dry source to its
//!   caller.

use std::io::{self, Read};

use crate::error::{PacketError, Result};
use crate::pcap::{MAGIC_MICROS, MAGIC_NANOS};
use tdat_timeset::Micros;

/// Length of the pcap global header.
pub(crate) const GLOBAL_HEADER_LEN: usize = 24;

/// Length of a pcap record header.
pub(crate) const RECORD_HEADER_LEN: usize = 16;

/// Largest captured length the strict policy accepts; anything above
/// is a corrupt length field, not a packet.
const MAX_RECORD_BYTES: u32 = 0x0400_0000;

/// Largest captured length the lossy policy treats as a believable
/// record rather than corruption of the length field. Ethernet frames
/// top out at 64 kB even with jumbo encapsulation; 128 kB leaves slack.
const PLAUSIBLE_RECORD_BYTES: u32 = 0x0002_0000;

/// How far a resynchronization scan may advance before giving up.
pub(crate) const RESYNC_SCAN_LIMIT: usize = 1 << 20;

/// Largest believable step of the capture clock between adjacent
/// records (one day, in seconds). Used only to judge resync
/// candidates, not in-sequence records: a capture may sit quiet for
/// days, but garbage rarely lands within a day of the last timestamp.
const PLAUSIBLE_CLOCK_STEP_SECS: i64 = 86_400;

/// Bytes a [`Window`] holds before it has met a larger record: big
/// enough that a refill is one read per hundred-odd frames, small
/// enough to stay cache-resident.
const WINDOW_BYTES: usize = 64 * 1024;

/// The error `std::io::Read::read_exact` gives for a short read, so a
/// capture that ends mid-structure fails with the same text whichever
/// source it came through.
fn short_read() -> PacketError {
    let kind = io::ErrorKind::UnexpectedEof;
    PacketError::Io(io::Error::new(kind, "failed to fill whole buffer"))
}

/// Byte-order-aware integer reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endianness {
    Little,
    Big,
}

impl Endianness {
    /// The `u32` at `bytes[at..at + 4]`.
    fn u32(self, bytes: &[u8], at: usize) -> u32 {
        let word = [bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]];
        match self {
            Endianness::Little => u32::from_le_bytes(word),
            Endianness::Big => u32::from_be_bytes(word),
        }
    }
}

/// Decoded fields of a 16-byte pcap record header.
#[derive(Debug, Clone, Copy)]
struct RecordHeader {
    ts_sec: i64,
    ts_frac: i64,
    incl_len: u32,
    orig_len: u32,
}

impl RecordHeader {
    /// Decodes the header at the front of `h` (at least 16 bytes).
    fn parse(e: Endianness, h: &[u8]) -> RecordHeader {
        RecordHeader {
            ts_sec: e.u32(h, 0) as i64,
            ts_frac: e.u32(h, 4) as i64,
            incl_len: e.u32(h, 8),
            orig_len: e.u32(h, 12),
        }
    }

    /// Absolute timestamp in microseconds, regardless of the file's
    /// native resolution.
    fn abs_micros(&self, nanos: bool) -> i64 {
        let micros = if nanos {
            self.ts_frac / 1000
        } else {
            self.ts_frac
        };
        self.ts_sec * 1_000_000 + micros
    }
}

/// Where a reader's bytes come from: everything from the committed
/// position to the end of what the source holds so far.
pub(crate) trait Source {
    /// The bytes available past the committed position.
    fn available(&self) -> &[u8];

    /// Commits `n` available bytes; they stay readable behind the
    /// position until the next [`refill`](Source::refill).
    fn advance(&mut self, n: usize);

    /// Tries to bring [`available`](Source::available) up to `want`
    /// bytes. `Ok(false)` means the source has no more to give — for
    /// good, or in a growing file for now.
    fn refill(&mut self, want: usize) -> Result<bool>;
}

/// A byte stream read through a grow-only window — the source under
/// [`PcapReader`](crate::PcapReader) and
/// [`LossyReader`](crate::LossyReader), and (behind a shrink check)
/// under the follower. The committed position and the filled end sit
/// inside one reusable buffer, so records decode in place and steady
/// state allocates nothing.
#[derive(Debug)]
pub(crate) struct Window<R> {
    pub(crate) input: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> Window<R> {
    pub(crate) fn new(input: R) -> Window<R> {
        Window {
            input,
            buf: vec![0; WINDOW_BYTES],
            start: 0,
            end: 0,
        }
    }

    /// The last `n` committed bytes — the body of the record just
    /// stepped over.
    pub(crate) fn behind(&self, n: usize) -> &[u8] {
        &self.buf[self.start - n..self.start]
    }
}

impl<R: Read> Source for Window<R> {
    fn available(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn advance(&mut self, n: usize) {
        self.start += n;
    }

    /// Moves the uncommitted tail to the front, grows to `want` if a
    /// record needs it, and reads until `want` bytes are available or
    /// the input reports none left. Each read asks for all free space,
    /// so one call usually fills the window.
    fn refill(&mut self, want: usize) -> Result<bool> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        while self.end < want {
            match self.input.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }
}

/// One record stepped over: its rebased timestamp, its length on the
/// wire, and how many body bytes now sit behind the source's position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    pub(crate) timestamp: Micros,
    pub(crate) orig_len: u32,
    pub(crate) body_len: usize,
}

/// Which plausibility gates a record header must pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// The strict readers' length bound only.
    Strict,
    /// The lossy readers' length and timestamp-fraction bounds.
    Lossy,
    /// The lossy bounds plus the clock-step bound: a resync candidate
    /// has only its own sixteen bytes to vouch for it.
    Candidate,
}

/// What one step over the available bytes found.
enum Step {
    Record(Record),
    /// The bytes end inside the item at the position, which needs
    /// `want` bytes in all (16 for a header, more for a whole record).
    NeedMore {
        want: usize,
    },
    /// The header at the position fails the gate.
    Implausible {
        incl_len: u32,
    },
}

/// What the lossy policy made of the bytes at the position.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LossyStep {
    /// A record was stepped over.
    Record(Record),
    /// This many garbage bytes were skipped to reach a plausible
    /// record header, which the next step will read.
    Resynced(u64),
    /// The source ran dry `have` bytes into an item of `want` (0 of 16
    /// is a clean record boundary).
    Short { have: usize, want: usize },
    /// Garbage at the position, and no plausible header in the less
    /// than a scan budget of bytes the source could supply.
    NoTarget,
    /// Garbage at the position, and no plausible header within the
    /// whole scan budget: more bytes cannot help.
    BudgetSpent,
}

/// The format state of one capture and the record walk over it.
#[derive(Debug)]
pub(crate) struct Walker {
    endianness: Endianness,
    nanos: bool,
    link_type: u32,
    /// Timestamp of the first record, used as the trace epoch so that
    /// in-memory timestamps stay small. `None` until the first record.
    epoch: Option<i64>,
    /// Whole-second timestamp of the last record, which resync
    /// candidates are judged against.
    last_ts_sec: Option<i64>,
}

impl Walker {
    /// Reads the 24-byte global header at `src`'s position and commits
    /// it. `Ok(None)` when the source cannot supply 24 bytes.
    ///
    /// # Errors
    ///
    /// Fails on a source error or an unrecognized magic number.
    pub(crate) fn open(src: &mut impl Source) -> Result<Option<Walker>> {
        if !src.refill(GLOBAL_HEADER_LEN)? {
            return Ok(None);
        }
        let header = src.available();
        let magic_le = Endianness::Little.u32(header, 0);
        let magic_be = Endianness::Big.u32(header, 0);
        let (endianness, nanos) = match (magic_le, magic_be) {
            (MAGIC_MICROS, _) => (Endianness::Little, false),
            (MAGIC_NANOS, _) => (Endianness::Little, true),
            (_, MAGIC_MICROS) => (Endianness::Big, false),
            (_, MAGIC_NANOS) => (Endianness::Big, true),
            _ => return Err(PacketError::BadMagic(magic_le)),
        };
        let link_type = endianness.u32(header, 20);
        src.advance(GLOBAL_HEADER_LEN);
        Ok(Some(Walker {
            endianness,
            nanos,
            link_type,
            epoch: None,
            last_ts_sec: None,
        }))
    }

    /// [`open`](Walker::open) for a source that is finite: fewer than
    /// 24 bytes is the error `read_exact` would have given.
    pub(crate) fn open_finite(src: &mut impl Source) -> Result<Walker> {
        Walker::open(src)?.ok_or_else(short_read)
    }

    pub(crate) fn link_type(&self) -> u32 {
        self.link_type
    }

    /// The trace epoch: the absolute time of the first record, once
    /// one was read (or the one [`with_epoch`](Walker::with_epoch) set).
    pub(crate) fn epoch(&self) -> Option<i64> {
        self.epoch
    }

    /// Rebases this capture's records to `epoch` rather than to its own
    /// first record: how a successor capture keeps its predecessor's
    /// clock.
    pub(crate) fn with_epoch(mut self, epoch: Option<i64>) -> Walker {
        self.epoch = epoch;
        self
    }

    /// Decodes the record header at the front of `bytes` and applies
    /// `gate`; the error is the captured length it claimed.
    #[inline]
    fn admit(&self, bytes: &[u8], gate: Gate) -> std::result::Result<RecordHeader, u32> {
        let h = RecordHeader::parse(self.endianness, bytes);
        let plausible = if gate == Gate::Strict {
            h.incl_len <= MAX_RECORD_BYTES
        } else {
            let frac_limit = if self.nanos { 1_000_000_000 } else { 1_000_000 };
            let clock_step = match (gate, self.last_ts_sec) {
                (Gate::Candidate, Some(last)) => (h.ts_sec - last).abs(),
                _ => 0,
            };
            h.incl_len <= PLAUSIBLE_RECORD_BYTES
                && h.orig_len <= PLAUSIBLE_RECORD_BYTES
                && h.ts_frac < frac_limit
                && clock_step <= PLAUSIBLE_CLOCK_STEP_SECS
        };
        if plausible {
            Ok(h)
        } else {
            Err(h.incl_len)
        }
    }

    /// Steps over the record at the front of `avail`, if all of it is
    /// there and its header passes `gate`.
    #[inline]
    fn step(&mut self, avail: &[u8], gate: Gate) -> Step {
        if avail.len() < RECORD_HEADER_LEN {
            return Step::NeedMore {
                want: RECORD_HEADER_LEN,
            };
        }
        let h = match self.admit(avail, gate) {
            Ok(h) => h,
            Err(incl_len) => return Step::Implausible { incl_len },
        };
        let body_len = h.incl_len as usize;
        if avail.len() < RECORD_HEADER_LEN + body_len {
            return Step::NeedMore {
                want: RECORD_HEADER_LEN + body_len,
            };
        }
        self.last_ts_sec = Some(h.ts_sec);
        let abs = h.abs_micros(self.nanos);
        let epoch = *self.epoch.get_or_insert(abs);
        Step::Record(Record {
            timestamp: Micros(abs - epoch),
            orig_len: h.orig_len,
            body_len,
        })
    }

    /// Offset of the first plausible record header past the front of
    /// `avail`, trying at most [`RESYNC_SCAN_LIMIT`] offsets.
    fn resync(&self, avail: &[u8]) -> Option<usize> {
        let last = avail.len().checked_sub(RECORD_HEADER_LEN)?;
        (1..=last.min(RESYNC_SCAN_LIMIT))
            .find(|&at| self.admit(&avail[at..], Gate::Candidate).is_ok())
    }

    /// The strict policy: the next record of a finite source, or `None`
    /// at its end. A partial trailing record *header* reads as a clean
    /// end, as it did when headers were fetched with `read_exact`.
    ///
    /// # Errors
    ///
    /// An implausible captured length is `Malformed` (its header is
    /// committed, so a caller may read on); a record cut mid-body is
    /// the `UnexpectedEof` of a short read, and ends the source.
    pub(crate) fn next_strict(&mut self, src: &mut impl Source) -> Result<Option<Record>> {
        loop {
            match self.step(src.available(), Gate::Strict) {
                Step::Record(record) => {
                    src.advance(RECORD_HEADER_LEN + record.body_len);
                    return Ok(Some(record));
                }
                Step::NeedMore { want } => {
                    if src.refill(want)? {
                        continue;
                    }
                    if want == RECORD_HEADER_LEN {
                        return Ok(None);
                    }
                    src.advance(src.available().len());
                    return Err(short_read());
                }
                Step::Implausible { incl_len } => {
                    src.advance(RECORD_HEADER_LEN);
                    return Err(PacketError::Malformed {
                        what: "pcap record",
                        detail: format!("implausible captured length {incl_len}"),
                    });
                }
            }
        }
    }

    /// The lossy policy: the next record, or what stands in its way.
    /// Garbage at the position is scanned — first in what is already
    /// buffered, then in up to the whole budget — for the next
    /// plausible record header.
    ///
    /// # Errors
    ///
    /// Fails only when the source does; capture damage never errors.
    pub(crate) fn next_lossy(&mut self, src: &mut impl Source) -> Result<LossyStep> {
        loop {
            match self.step(src.available(), Gate::Lossy) {
                Step::Record(record) => {
                    src.advance(RECORD_HEADER_LEN + record.body_len);
                    return Ok(LossyStep::Record(record));
                }
                Step::NeedMore { want } => {
                    if !src.refill(want)? {
                        let have = src.available().len();
                        return Ok(LossyStep::Short { have, want });
                    }
                }
                Step::Implausible { .. } => {
                    let mut target = self.resync(src.available());
                    let mut budget_spent = false;
                    if target.is_none() {
                        budget_spent = src.refill(RESYNC_SCAN_LIMIT + RECORD_HEADER_LEN)?;
                        target = self.resync(src.available());
                    }
                    return Ok(match target {
                        Some(skipped) => {
                            src.advance(skipped);
                            LossyStep::Resynced(skipped as u64)
                        }
                        None if budget_spent => LossyStep::BudgetSpent,
                        None => LossyStep::NoTarget,
                    });
                }
            }
        }
    }
}
