//! Memory-mapped pcap ingest and block decode — the batch hot path.
//!
//! [`MmapReader`] is the strict policy over a source that is all there
//! (see the crate docs, "Capture ingest"): it maps the file (via
//! [`tdat_mapfile`]) and feeds [`FrameView`](crate::FrameView)s
//! straight out of the mapping, with no window in between; when mapping
//! is unavailable the whole file is buffered once at open and the
//! reader behaves identically.
//!
//! On top of that sits block decode: [`MmapReader::next_views_into`]
//! fills a caller-owned [`FrameBlock`] with up to a block's worth of
//! decoded headers per call. The source-shrink check is hoisted out to
//! once per block, and the TCP option scan runs through the SWAR word
//! paths of [`TcpHeader::decode_into`]. Slots reuse their option-vector
//! capacity, so steady-state block decode performs zero heap
//! allocations per frame.
//!
//! # Truncation semantics
//!
//! A mapped file that another process shrinks turns the mapped tail
//! into a `SIGBUS` trap. The reader therefore re-checks the on-disk
//! length (one `fstat`, no page touched) before reading — once per
//! block, at the top of [`next_views_into`](MmapReader::next_views_into)
//! — and surfaces a shrink as [`PacketError::SourceTruncated`], the
//! same typed error
//! [`PcapFollower`](crate::PcapFollower) reports when a followed
//! capture is rotated under it: never UB, never a panic. The check is
//! inherently best-effort (a shrink can land between the check and the
//! read), which is why the *follower* — built for live, churning files
//! — sticks to buffered reads, while the mapped reader targets static
//! offline captures. Buffered-fallback readers snapshot the file at
//! open and cannot observe later shrinks at all.

use std::path::Path;

use crate::error::{PacketError, Result};
use crate::eth::EthernetHeader;
use crate::frame::{FrameLike, Layers, TcpFrame};
use crate::ipv4::Ipv4Header;
use crate::pcap::LINKTYPE_ETHERNET;
use crate::tcp::TcpHeader;
use crate::walk::{Source, Walker};
use tdat_mapfile::MappedFile;
use tdat_timeset::Micros;

/// Default number of frame slots in a [`FrameBlock`].
pub const DEFAULT_BLOCK_FRAMES: usize = 256;

/// A capture that is all there: the mapping (or its buffered stand-in)
/// and the committed position in it.
#[derive(Debug)]
struct Mapped {
    map: MappedFile,
    pos: usize,
}

impl Mapped {
    /// The last `n` committed bytes and their offset in the mapping.
    fn behind(&self, n: usize) -> (usize, &[u8]) {
        let start = self.pos - n;
        (start, &self.map.bytes()[start..self.pos])
    }
}

impl Source for Mapped {
    fn available(&self) -> &[u8] {
        &self.map.bytes()[self.pos..]
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    fn refill(&mut self, want: usize) -> Result<bool> {
        Ok(self.available().len() >= want)
    }
}

/// Zero-copy pcap reader over a memory-mapped (or, as a fallback,
/// fully buffered) capture file.
///
/// Iterates the same classic-pcap record stream as
/// [`PcapReader`](crate::PcapReader) — the same walk — and yields
/// byte-identical frames and errors, but borrows record bytes directly
/// from the mapping instead of reading them into a window.
///
/// ```no_run
/// use tdat_packet::{FrameBlock, FrameLike, MmapReader};
///
/// let mut reader = MmapReader::open("trace.pcap")?;
/// let mut block = FrameBlock::new();
/// loop {
///     let views = reader.next_views_into(&mut block)?;
///     if views.is_empty() {
///         break;
///     }
///     for frame in views.iter() {
///         let _ = frame.payload().len();
///     }
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MmapReader {
    src: Mapped,
    walker: Walker,
    /// Error hit while a partially filled block was in flight; returned
    /// by the next read call so the block's frames are not lost.
    pending: Option<PacketError>,
}

impl MmapReader {
    /// Opens and maps a pcap file. Falls back to buffering the whole
    /// file when mapping is unavailable (non-Linux hosts, empty files).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unrecognized magic number.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapReader> {
        MmapReader::with_map(MappedFile::open(path)?)
    }

    /// Opens a pcap file with the buffered backing unconditionally —
    /// the mmap-vs-buffered identity tests use this to exercise the
    /// fallback on hosts where mapping would succeed.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`open`](MmapReader::open).
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<MmapReader> {
        MmapReader::with_map(MappedFile::open_unmapped(path)?)
    }

    /// Wraps an in-memory pcap image (bench corpora, tests).
    ///
    /// # Errors
    ///
    /// Fails on an unrecognized magic number or a short header.
    pub fn from_vec(bytes: Vec<u8>) -> Result<MmapReader> {
        MmapReader::with_map(MappedFile::from_vec(bytes))
    }

    fn with_map(map: MappedFile) -> Result<MmapReader> {
        let mut src = Mapped { map, pos: 0 };
        let walker = Walker::open_finite(&mut src)?;
        Ok(MmapReader {
            src,
            walker,
            pending: None,
        })
    }

    /// The file's link type (e.g. [`LINKTYPE_ETHERNET`]).
    pub fn link_type(&self) -> u32 {
        self.walker.link_type()
    }

    /// `true` when the reader is backed by a live kernel mapping rather
    /// than a buffered copy of the file.
    pub fn is_mapped(&self) -> bool {
        self.src.map.is_mapped()
    }

    /// Errors with [`PacketError::SourceTruncated`] if the underlying
    /// file has shrunk below the mapped length — the typed shrink
    /// signal shared with [`PcapFollower`](crate::PcapFollower).
    /// Buffered and in-memory backings snapshot their bytes at open and
    /// always pass.
    fn shrink_check(&self) -> Result<()> {
        let map = &self.src.map;
        if !map.is_mapped() {
            return Ok(());
        }
        let current = map.current_file_len()?;
        if (current as usize) < map.len() {
            return Err(PacketError::SourceTruncated {
                committed: self.src.pos as u64,
                len: current,
            });
        }
        Ok(())
    }

    /// The checks every read starts with: a held-back error first, then
    /// the link type, then the shrink check — before any mapped page
    /// is touched.
    fn begin_read(&mut self) -> Result<()> {
        if let Some(err) = self.pending.take() {
            return Err(err);
        }
        if self.link_type() != LINKTYPE_ETHERNET {
            return Err(PacketError::UnsupportedLinkType(self.link_type()));
        }
        self.shrink_check()
    }

    /// Decodes up to a block's worth of frames in one call, reusing
    /// `block`'s slots (and their option-vector capacity). Returns the
    /// decoded views; an empty result means a clean end of file.
    ///
    /// The source-shrink check runs once per block, not once per
    /// frame. A decode error inside a partially filled block is held
    /// back and returned by the *next* call, so a consumer sees the
    /// same frames and errors in the same order as looping
    /// [`PcapReader::next_view`](crate::PcapReader::next_view) over the
    /// same bytes.
    ///
    /// # Errors
    ///
    /// Same failure modes as
    /// [`PcapReader::next_view`](crate::PcapReader::next_view), plus
    /// [`PacketError::SourceTruncated`] when the mapped file shrank.
    pub fn next_views_into<'r>(&'r mut self, block: &'r mut FrameBlock) -> Result<BlockViews<'r>> {
        block.len = 0;
        self.begin_read()?;
        while block.len < block.slots.len() {
            let filled = match self.walker.next_strict(&mut self.src) {
                Ok(Some(record)) => {
                    let (base, wire) = self.src.behind(record.body_len);
                    block.slots[block.len].parse(record.timestamp, base, wire)
                }
                Ok(None) => break,
                Err(err) => Err(err),
            };
            match filled {
                Ok(()) => block.len += 1,
                Err(err) if block.len == 0 => return Err(err),
                Err(err) => {
                    self.pending = Some(err);
                    break;
                }
            }
        }
        Ok(BlockViews {
            slots: &block.slots[..block.len],
            data: self.src.map.bytes(),
        })
    }

    /// Reads all frames into memory through the block-decode path.
    ///
    /// # Errors
    ///
    /// Propagates the first decode or I/O error.
    pub fn read_all(&mut self) -> Result<Vec<TcpFrame>> {
        let mut frames = Vec::new();
        let mut block = FrameBlock::new();
        loop {
            let views = self.next_views_into(&mut block)?;
            if views.is_empty() {
                break;
            }
            for frame in views.iter() {
                frames.push(frame.to_frame());
            }
        }
        Ok(frames)
    }
}

/// One decoded frame slot of a [`FrameBlock`]: the parsed headers plus
/// the payload's byte range in the source mapping.
#[derive(Debug, Clone, Default)]
struct FrameSlot {
    timestamp: Micros,
    eth: EthernetHeader,
    ip: Ipv4Header,
    tcp: TcpHeader,
    payload_start: usize,
    payload_len: usize,
}

impl FrameSlot {
    /// Decodes one record into this slot:
    /// [`FrameView::parse`](crate::FrameView::parse) over the same header
    /// walk, but with the TCP header written in place so option-vector
    /// capacity is reused. `base` is the record's data offset in the
    /// source mapping.
    fn parse(&mut self, timestamp: Micros, base: usize, wire: &[u8]) -> Result<()> {
        let layers = Layers::walk(wire, false)?;
        let consumed = self.tcp.decode_into(layers.segment)?;
        self.timestamp = timestamp;
        self.eth = layers.eth;
        self.ip = layers.ip;
        self.payload_start = base + layers.segment_at + consumed;
        self.payload_len = layers.segment.len() - consumed;
        Ok(())
    }
}

/// A reusable batch of decoded frame slots, filled by
/// [`MmapReader::next_views_into`]. Allocate once, reuse across the
/// whole capture: slots (including their TCP option vectors) keep
/// their capacity between refills.
#[derive(Debug)]
pub struct FrameBlock {
    slots: Vec<FrameSlot>,
    len: usize,
}

impl FrameBlock {
    /// A block with [`DEFAULT_BLOCK_FRAMES`] slots.
    pub fn new() -> FrameBlock {
        FrameBlock::with_capacity(DEFAULT_BLOCK_FRAMES)
    }

    /// A block with a custom number of slots per refill.
    pub fn with_capacity(frames: usize) -> FrameBlock {
        FrameBlock {
            slots: vec![FrameSlot::default(); frames.max(1)],
            len: 0,
        }
    }

    /// Number of frames decoded by the most recent refill.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the most recent refill decoded no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots available per refill.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl Default for FrameBlock {
    fn default() -> Self {
        FrameBlock::new()
    }
}

/// The decoded frames of one [`FrameBlock`] refill, borrowing both the
/// block's slots and the source mapping.
#[derive(Debug, Clone, Copy)]
pub struct BlockViews<'a> {
    slots: &'a [FrameSlot],
    data: &'a [u8],
}

impl<'a> BlockViews<'a> {
    /// Number of decoded frames in the block.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the block holds no frames (clean end of file).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `index`-th decoded frame, if in range.
    pub fn get(&self, index: usize) -> Option<BlockFrame<'a>> {
        self.slots.get(index).map(|slot| BlockFrame {
            slot,
            data: self.data,
        })
    }

    /// Iterates the block's decoded frames.
    pub fn iter(&self) -> BlockIter<'a> {
        BlockIter {
            slots: self.slots.iter(),
            data: self.data,
        }
    }
}

impl<'a> IntoIterator for &BlockViews<'a> {
    type Item = BlockFrame<'a>;
    type IntoIter = BlockIter<'a>;

    fn into_iter(self) -> BlockIter<'a> {
        self.iter()
    }
}

/// Iterator over the frames of a [`BlockViews`].
#[derive(Debug, Clone)]
pub struct BlockIter<'a> {
    slots: std::slice::Iter<'a, FrameSlot>,
    data: &'a [u8],
}

impl<'a> Iterator for BlockIter<'a> {
    type Item = BlockFrame<'a>;

    fn next(&mut self) -> Option<BlockFrame<'a>> {
        self.slots.next().map(|slot| BlockFrame {
            slot,
            data: self.data,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

/// One block-decoded frame: pre-parsed headers in the block slot plus
/// a payload borrowed from the source mapping. Implements
/// [`FrameLike`], so trackers and demultiplexers consume it exactly
/// like a [`FrameView`](crate::FrameView).
#[derive(Debug, Clone, Copy)]
pub struct BlockFrame<'a> {
    slot: &'a FrameSlot,
    data: &'a [u8],
}

impl<'a> BlockFrame<'a> {
    /// Copies into an owned [`TcpFrame`].
    pub fn to_frame(&self) -> TcpFrame {
        TcpFrame {
            timestamp: self.slot.timestamp,
            eth: self.slot.eth,
            ip: self.slot.ip.clone(),
            tcp: self.slot.tcp.clone(),
            payload: self.payload_bytes().to_vec(),
        }
    }

    fn payload_bytes(&self) -> &'a [u8] {
        &self.data[self.slot.payload_start..self.slot.payload_start + self.slot.payload_len]
    }
}

impl FrameLike for BlockFrame<'_> {
    fn timestamp(&self) -> Micros {
        self.slot.timestamp
    }
    fn ip(&self) -> &Ipv4Header {
        &self.slot.ip
    }
    fn tcp(&self) -> &TcpHeader {
        &self.slot.tcp
    }
    fn payload(&self) -> &[u8] {
        self.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;
    use crate::pcap::{PcapReader, PcapWriter};
    use crate::tcp::TcpOption;
    use crate::TcpFlags;
    use std::net::Ipv4Addr;

    fn capture(frames: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        for i in 0..frames {
            let frame = FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                .at(Micros::from_millis(i as i64))
                .ports(179, 40000 + (i % 7) as u16)
                .seq(i as u32 * 100)
                .ack_to(i as u32)
                .option(TcpOption::Timestamps(i as u32, i as u32 / 2))
                .payload(vec![0xab; i % 1400])
                .build();
            w.write_frame(&frame).unwrap();
        }

        buf
    }

    #[test]
    fn from_vec_matches_buffered_reader() {
        let pcap = capture(200);
        let expect = PcapReader::new(&pcap[..]).unwrap().read_all().unwrap();
        let got = MmapReader::from_vec(pcap).unwrap().read_all().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn mapped_file_matches_buffered_fallback() {
        let pcap = capture(300);
        let path = std::env::temp_dir().join(format!("tdat-mmap-identity-{}", std::process::id()));
        std::fs::write(&path, &pcap).unwrap();

        let mapped = MmapReader::open(&path).unwrap();
        assert!(mapped.is_mapped());
        let via_map = { mapped }.read_all().unwrap();
        let via_buf = MmapReader::open_buffered(&path)
            .unwrap()
            .read_all()
            .unwrap();
        let via_classic = PcapReader::open(&path).unwrap().read_all().unwrap();
        assert_eq!(via_map, via_classic);
        assert_eq!(via_buf, via_classic);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_decode_recycles_slots() {
        let pcap = capture(1000);
        let mut reader = MmapReader::from_vec(pcap.clone()).unwrap();
        let mut block = FrameBlock::with_capacity(64);
        let mut total = 0usize;
        let mut rebuilt = Vec::new();
        loop {
            let views = reader.next_views_into(&mut block).unwrap();
            if views.is_empty() {
                break;
            }
            assert!(views.len() <= 64);
            total += views.len();
            for frame in &views {
                rebuilt.push(frame.to_frame());
            }
        }
        assert_eq!(total, 1000);
        let expect = PcapReader::new(&pcap[..]).unwrap().read_all().unwrap();
        assert_eq!(rebuilt, expect);
    }

    #[test]
    fn decode_error_sequence_matches_per_frame_loop() {
        // A capture whose middle record is a non-IPv4 ethertype: the
        // block path must yield the same frames and the same error, in
        // the same order, as the per-frame loop.
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        let good = FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(Micros::ZERO)
            .payload(b"ok".to_vec())
            .build();
        let mut bad = good.clone();
        bad.eth.ethertype = 0x86dd;
        w.write_frame(&good).unwrap();
        w.write_record(Micros(10), &bad.to_wire(), 60).unwrap();
        w.write_frame(&good).unwrap();

        // Reference: per-frame loop over the classic reader.
        let mut classic = PcapReader::new(&buf[..]).unwrap();
        let first = classic.next_view().unwrap().unwrap().to_frame();
        let err = classic.next_view().unwrap_err();
        let last = classic.next_view().unwrap().unwrap().to_frame();
        assert!(classic.next_view().unwrap().is_none());

        let mut reader = MmapReader::from_vec(buf).unwrap();
        let mut block = FrameBlock::new();
        let views = reader.next_views_into(&mut block).unwrap();
        assert_eq!(views.len(), 1);
        assert_eq!(views.get(0).unwrap().to_frame(), first);
        let block_err = reader.next_views_into(&mut block).unwrap_err();
        assert_eq!(block_err.to_string(), err.to_string());
        let views = reader.next_views_into(&mut block).unwrap();
        assert_eq!(views.len(), 1);
        assert_eq!(views.get(0).unwrap().to_frame(), last);
        assert!(reader.next_views_into(&mut block).unwrap().is_empty());
    }

    #[test]
    fn shrunk_mapping_surfaces_typed_error() {
        // The pinned truncation-semantics test: shrinking a mapped
        // capture mid-read yields PacketError::SourceTruncated — the
        // same typed signal PcapFollower uses — not UB or a panic.
        let pcap = capture(500);
        let path = std::env::temp_dir().join(format!("tdat-mmap-shrink-{}", std::process::id()));
        std::fs::write(&path, &pcap).unwrap();

        let mut reader = MmapReader::open(&path).unwrap();
        if !reader.is_mapped() {
            std::fs::remove_file(&path).ok();
            return; // fallback backing cannot observe shrinks
        }
        let mut block = FrameBlock::with_capacity(8);
        let views = reader.next_views_into(&mut block).unwrap();
        assert_eq!(views.len(), 8);

        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(64).unwrap();
        drop(f);

        let err = reader.next_views_into(&mut block).unwrap_err();
        match err {
            PacketError::SourceTruncated { committed, len } => {
                assert_eq!(len, 64);
                assert!(committed > 24);
            }
            other => panic!("expected SourceTruncated, got {other:?}"),
        }
        assert!(err.is_transient());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pure_acks_and_flags_survive_block_decode() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        let ack = FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(10, 0, 0, 8))
            .at(Micros::ZERO)
            .ack_to(77)
            .build();
        let fin = FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(10, 0, 0, 8))
            .at(Micros(5))
            .flags(TcpFlags::FIN | TcpFlags::ACK)
            .seq(3)
            .build();
        w.write_frame(&ack).unwrap();
        w.write_frame(&fin).unwrap();

        let mut reader = MmapReader::from_vec(buf).unwrap();
        let mut block = FrameBlock::new();
        let views = reader.next_views_into(&mut block).unwrap();
        assert_eq!(views.len(), 2);
        let first = views.get(0).unwrap();
        assert!(first.is_pure_ack());
        assert_eq!(FrameLike::seq_end(&views.get(1).unwrap()), 4);
        assert_eq!(views.get(1).unwrap().tcp().flags.to_string(), "FA");
    }

    #[test]
    fn short_header_errors_like_classic_reader() {
        let classic = PcapReader::new(&[0u8; 10][..]).unwrap_err();
        let mapped = MmapReader::from_vec(vec![0u8; 10]).unwrap_err();
        assert_eq!(classic.to_string(), mapped.to_string());
    }
}
