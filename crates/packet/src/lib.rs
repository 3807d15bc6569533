//! Packet model and pcap file I/O for the T-DAT suite.
//!
//! T-DAT consumes raw tcpdump traces; this crate provides everything
//! needed to parse them and (for the simulator) to synthesize them:
//!
//! * [`EthernetHeader`], [`Ipv4Header`], [`TcpHeader`] — wire-accurate
//!   header codecs with checksum computation and TCP option support;
//! * [`TcpFrame`] / [`FrameBuilder`] — a full captured frame with its
//!   timestamp, the unit all analysis crates operate on;
//! * [`PcapWriter`] and the four readers below — the classic libpcap
//!   savefile format (both endiannesses, microsecond and nanosecond
//!   resolution);
//! * [`seq_cmp`] / [`seq_diff`] — TCP sequence-number arithmetic with
//!   wraparound.
//!
//! # Capture ingest
//!
//! One record walk sits under every reader. The crate-private walker
//! owns what the global header and earlier records establish (byte
//! order, timestamp resolution, link type, the trace epoch, the last
//! whole-second timestamp) and steps over the bytes available so far
//! from a committed position, answering *record*, *need more bytes* or
//! *implausible header*. The Ethernet → IPv4 → TCP header chain is
//! likewise walked once; [`FrameView::parse`], the block decoder's
//! in-place slot fill and [`FrameView::parse_lossy`] are adapters over
//! it. The four public readers differ only in where the bytes come
//! from and in what the two non-record answers mean:
//!
//! | reader | source | policy | used by |
//! |---|---|---|---|
//! | [`PcapReader`] | read window over any `Read` | strict | `t-dat FILE`, tools, tests |
//! | [`MmapReader`] | the whole mapping (or a buffered copy) | strict | `t-dat --shards N` (block decode) |
//! | [`LossyReader`] | read window over any `Read` | lossy | `StreamAnalyzer::analyze_pcap_lossy`, oracle `--chaos`, fuzz corpus |
//! | [`PcapFollower`] | read window over a growing file | lossy | `t-dat-monitor --follow` / `--sweep` |
//!
//! **Sources.** A mapping is complete: it never refills, and frames
//! borrow it directly. A read window is one grow-only buffer (64 KiB
//! until a larger record is met) refilled with one `read` per
//! window-full; records decode in place, so steady state allocates
//! nothing. The follower's window is the same over a file that is
//! still being written: "no more bytes" means *not yet*, the committed
//! offset ([`PcapFollower::offset`]) never includes read-ahead, and
//! every refill first checks that the file has not shrunk.
//!
//! **Policies.** Strict turns an implausible captured length
//! (> 64 MiB) into `Malformed` and a record cut mid-body into an
//! `UnexpectedEof` I/O error; a partial trailing record *header* is a
//! clean end. Lossy applies tighter gates (captured and original length
//! ≤ 128 KiB, a sub-second fraction below one second), scans past
//! garbage for the next header that also lies within a day of the last
//! timestamp — a bound on resync *candidates* only — within a 1 MiB
//! budget, and reports [`CaptureAnomaly::Desynchronized`]. What a dry
//! source means is the facade's call: for [`LossyReader`] the capture
//! is finished, so a partial tail or unreachable resync target is a
//! final [`CaptureAnomaly::TruncatedRecord`]; for [`PcapFollower`] it
//! is pending, unless the whole budget was scanned, which is a hard
//! error. Per-record damage (duplicates, clock regressions, snap
//! clipping, IPv4 and TCP checksums) is classified by the shared
//! [`LossyDecoder`].
//!
//! **Shrink checks and fault points.** [`MmapReader`] `fstat`s once per
//! [`next_views_into`](MmapReader::next_views_into) block, before any
//! mapped page is touched; [`PcapFollower`] checks at every refill,
//! and the error is sticky. Both report
//! [`PacketError::SourceTruncated`]. A decode error that lands inside a
//! partly filled block is held back to the next call, so the block
//! reader yields the same frames and errors, in the same order, as
//! looping [`PcapReader::next_view`] over the same bytes. The
//! follower's `follow.read` and `follow.short_read` fault points are
//! evaluated once per [`poll_lossy`](PcapFollower::poll_lossy) call,
//! before anything else.
//!
//! # Examples
//!
//! Build a segment, write it to an in-memory pcap stream, and read it
//! back:
//!
//! ```
//! use tdat_packet::{FrameBuilder, PcapReader, PcapWriter, TcpFlags};
//! use tdat_timeset::Micros;
//!
//! let frame = FrameBuilder::new("10.0.0.1".parse()?, "10.0.0.2".parse()?)
//!     .at(Micros::from_millis(2))
//!     .ports(179, 52000)
//!     .seq(1)
//!     .flags(TcpFlags::ACK | TcpFlags::PSH)
//!     .payload(vec![0xff; 19])
//!     .build();
//!
//! let mut buf = Vec::new();
//! PcapWriter::new(&mut buf)?.write_frame(&frame)?;
//! let frames = PcapReader::new(&buf[..])?.read_all()?;
//! assert_eq!(frames[0].payload_len(), 19);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod eth;
mod follow;
mod frame;
mod ipv4;
mod lossy;
mod mmap;
mod pcap;
mod tcp;
mod walk;

pub use error::{PacketError, Result};
pub use eth::{EthernetHeader, MacAddr, ETHERNET_HEADER_LEN, ETHERTYPE_IPV4};
pub use follow::PcapFollower;
pub use frame::{FrameBuilder, FrameLike, FrameView, TcpFrame};
pub use ipv4::{internet_checksum, Ipv4Header, IPPROTO_TCP, IPV4_HEADER_LEN};
pub use lossy::{
    AnomalyCounts, CaptureAnomaly, LossyDecoder, LossyFrame, LossyFrameView, LossyParseView,
    LossyReader,
};
pub use mmap::{BlockFrame, BlockIter, BlockViews, FrameBlock, MmapReader, DEFAULT_BLOCK_FRAMES};
pub use pcap::{
    read_pcap_file, write_pcap_file, PcapReader, PcapWriter, RawRecord, LINKTYPE_ETHERNET,
    MAGIC_MICROS, MAGIC_NANOS,
};
pub use tcp::{seq_cmp, seq_diff, tcp_checksum, TcpFlags, TcpHeader, TcpOption, TCP_HEADER_LEN};
