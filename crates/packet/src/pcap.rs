//! Classic pcap (libpcap savefile) reading and writing.
//!
//! Implements the stable tcpdump capture format: a 24-byte global header
//! followed by per-packet records. Both byte orders and both timestamp
//! resolutions (microsecond `0xa1b2c3d4` and nanosecond `0xa1b23c4d`
//! magic) are read; writing always produces native microsecond
//! little-endian files. Only the Ethernet link type is decoded into
//! [`TcpFrame`]s, but raw records of any link type can be iterated.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::error::{PacketError, Result};
use crate::frame::{FrameView, TcpFrame};
use crate::walk::{Walker, Window};
use tdat_timeset::Micros;

/// Microsecond-resolution pcap magic, as written by tcpdump.
pub const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// Nanosecond-resolution pcap magic.
pub const MAGIC_NANOS: u32 = 0xa1b2_3c4d;
/// Link type for Ethernet (LINKTYPE_ETHERNET / DLT_EN10MB).
pub const LINKTYPE_ETHERNET: u32 = 1;

/// A raw pcap record: capture timestamp plus captured bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Capture timestamp (converted to microseconds regardless of file
    /// resolution).
    pub timestamp: Micros,
    /// Original (untruncated) packet length on the wire.
    pub orig_len: u32,
    /// Captured bytes (may be shorter than `orig_len` with a snaplen).
    pub data: Vec<u8>,
}

/// Streaming reader for classic pcap files: the strict policy over a
/// read window (see the crate docs, "Capture ingest").
///
/// # Examples
///
/// ```no_run
/// use tdat_packet::{PcapReader, TcpFrame};
///
/// let mut reader = PcapReader::open("trace.pcap")?;
/// for frame in reader.frames() {
///     let frame: TcpFrame = frame?;
///     println!("{frame}");
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PcapReader<R> {
    src: Window<R>,
    walker: Walker,
}

impl PcapReader<File> {
    /// Opens a pcap file from disk.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unrecognized magic number.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        PcapReader::new(File::open(path)?)
    }
}

impl<R: Read> PcapReader<R> {
    /// Wraps any reader positioned at the start of a pcap stream. A
    /// `&[u8]` slice works for in-memory traces. The reader does its
    /// own buffering, a window at a time, so `input` need not.
    ///
    /// # Errors
    ///
    /// Fails if the global header cannot be read or has a bad magic.
    pub fn new(input: R) -> Result<Self> {
        let mut src = Window::new(input);
        let walker = Walker::open_finite(&mut src)?;
        Ok(PcapReader { src, walker })
    }

    /// The file's link type (e.g. [`LINKTYPE_ETHERNET`]).
    pub fn link_type(&self) -> u32 {
        self.walker.link_type()
    }

    /// Reads the next raw record, or `None` at a clean end of file.
    ///
    /// Timestamps are reported relative to the first record in the file
    /// (the trace epoch), in microseconds.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a record that ends mid-data.
    pub fn next_record(&mut self) -> Result<Option<RawRecord>> {
        let record = self.walker.next_strict(&mut self.src)?;
        Ok(record.map(|record| RawRecord {
            timestamp: record.timestamp,
            orig_len: record.orig_len,
            data: self.src.behind(record.body_len).to_vec(),
        }))
    }

    /// Reads the next record and parses it as a borrowed, zero-copy
    /// [`FrameView`] over the reader's window. The view is valid until
    /// the next read call; the steady-state loop performs no heap
    /// allocation per frame.
    ///
    /// ```no_run
    /// use tdat_packet::PcapReader;
    ///
    /// let mut reader = PcapReader::open("trace.pcap")?;
    /// while let Some(view) = reader.next_view()? {
    ///     // hand `view` to a tracker/demux; copy only what's retained
    ///     let _ = view.payload.len();
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, on a non-Ethernet link type, or on frames
    /// that are not TCP over IPv4 (callers that expect mixed traffic
    /// should use [`next_record`](PcapReader::next_record) and filter).
    pub fn next_view(&mut self) -> Result<Option<FrameView<'_>>> {
        if self.link_type() != LINKTYPE_ETHERNET {
            return Err(PacketError::UnsupportedLinkType(self.link_type()));
        }
        match self.walker.next_strict(&mut self.src)? {
            Some(record) => {
                let wire = self.src.behind(record.body_len);
                FrameView::parse(record.timestamp, wire).map(Some)
            }
            None => Ok(None),
        }
    }

    fn next_frame(&mut self) -> Result<Option<TcpFrame>> {
        Ok(self.next_view()?.map(|view| view.to_frame()))
    }

    /// Iterator over parsed TCP frames.
    pub fn frames(&mut self) -> impl Iterator<Item = Result<TcpFrame>> + '_ {
        std::iter::from_fn(move || self.next_frame().transpose())
    }

    /// Reads all frames into memory.
    ///
    /// # Errors
    ///
    /// Propagates the first decode or I/O error.
    pub fn read_all(&mut self) -> Result<Vec<TcpFrame>> {
        self.frames().collect()
    }
}

/// Writer producing classic little-endian microsecond pcap files.
///
/// # Examples
///
/// ```
/// use tdat_packet::{FrameBuilder, PcapReader, PcapWriter};
/// use tdat_timeset::Micros;
///
/// // Timestamps are rebased to the first record on read, so write the
/// // first frame at the epoch for an exact round trip.
/// let frame = FrameBuilder::new("10.0.0.1".parse()?, "10.0.0.2".parse()?)
///     .at(Micros::ZERO)
///     .payload(b"data".to_vec())
///     .build();
/// let mut buf = Vec::new();
/// {
///     let mut writer = PcapWriter::new(&mut buf)?;
///     writer.write_frame(&frame)?;
/// }
/// let frames = PcapReader::new(&buf[..])?.read_all()?;
/// assert_eq!(frames, vec![frame]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    output: W,
}

impl PcapWriter<BufWriter<File>> {
    /// Creates (or truncates) a pcap file on disk.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        PcapWriter::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> PcapWriter<W> {
    /// Wraps a writer, emitting the pcap global header immediately.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn new(mut output: W) -> Result<Self> {
        let mut header = Vec::with_capacity(24);
        header.extend_from_slice(&MAGIC_MICROS.to_le_bytes());
        header.extend_from_slice(&2u16.to_le_bytes()); // version major
        header.extend_from_slice(&4u16.to_le_bytes()); // version minor
        header.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        header.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        header.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
        header.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        output.write_all(&header)?;
        Ok(PcapWriter { output })
    }

    /// Writes one raw record.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a negative timestamp (pcap stores unsigned
    /// seconds).
    pub fn write_record(&mut self, timestamp: Micros, data: &[u8], orig_len: u32) -> Result<()> {
        if timestamp.0 < 0 {
            return Err(PacketError::Malformed {
                what: "pcap record",
                detail: format!("negative timestamp {timestamp}"),
            });
        }
        let secs = (timestamp.0 / 1_000_000) as u32;
        let micros = (timestamp.0 % 1_000_000) as u32;
        self.output.write_all(&secs.to_le_bytes())?;
        self.output.write_all(&micros.to_le_bytes())?;
        self.output.write_all(&(data.len() as u32).to_le_bytes())?;
        self.output.write_all(&orig_len.to_le_bytes())?;
        self.output.write_all(data)?;
        Ok(())
    }

    /// Encodes and writes one TCP frame.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a negative frame timestamp.
    pub fn write_frame(&mut self, frame: &TcpFrame) -> Result<()> {
        let wire = frame.to_wire();
        self.write_record(frame.timestamp, &wire, wire.len() as u32)
    }

    /// Flushes buffered output.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn flush(&mut self) -> Result<()> {
        Ok(self.output.flush()?)
    }

    /// Finishes writing and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Fails if the final flush fails.
    pub fn into_inner(mut self) -> Result<W> {
        self.output.flush()?;
        Ok(self.output)
    }
}

/// Writes `frames` to `path` as a pcap file (convenience wrapper).
///
/// # Errors
///
/// Fails on I/O errors or negative timestamps.
pub fn write_pcap_file<'a>(
    path: impl AsRef<Path>,
    frames: impl IntoIterator<Item = &'a TcpFrame>,
) -> Result<()> {
    let mut writer = PcapWriter::create(path)?;
    for frame in frames {
        writer.write_frame(frame)?;
    }
    writer.flush()
}

/// Reads all TCP frames from a pcap file (convenience wrapper).
///
/// # Errors
///
/// Fails on I/O or decode errors.
pub fn read_pcap_file(path: impl AsRef<Path>) -> Result<Vec<TcpFrame>> {
    PcapReader::open(path)?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;
    use std::net::Ipv4Addr;

    fn frame(t_ms: i64, len: usize) -> TcpFrame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(Micros::from_millis(t_ms))
            .ports(179, 40000)
            .seq(1)
            .payload(vec![0xab; len])
            .build()
    }

    #[test]
    fn write_read_round_trip() {
        let frames = vec![frame(0, 10), frame(5, 0), frame(12, 1448)];
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            for f in &frames {
                w.write_frame(f).unwrap();
            }
        }
        let got = PcapReader::new(&buf[..]).unwrap().read_all().unwrap();
        assert_eq!(got, frames);
    }

    #[test]
    fn epoch_is_relative_to_first_record() {
        // Write with absolute-looking timestamps; read back relative.
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_frame(&frame(1_000_000, 1)).unwrap(); // t = 1000 s
            w.write_frame(&frame(1_000_500, 1)).unwrap();
        }
        let got = PcapReader::new(&buf[..]).unwrap().read_all().unwrap();
        assert_eq!(got[0].timestamp, Micros::ZERO);
        assert_eq!(got[1].timestamp, Micros::from_millis(500));
    }

    #[test]
    fn big_endian_files_are_read() {
        // Hand-build a big-endian microsecond file with one tiny record.
        let inner = frame(0, 4).to_wire();
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_MICROS.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        buf.extend_from_slice(&7u32.to_be_bytes()); // sec
        buf.extend_from_slice(&9u32.to_be_bytes()); // usec
        buf.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        buf.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        buf.extend_from_slice(&inner);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.data, inner);
        assert_eq!(rec.timestamp, Micros::ZERO); // first record = epoch
    }

    #[test]
    fn nanosecond_magic_converts_to_micros() {
        let inner = frame(0, 1).to_wire();
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NANOS.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&65535u32.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        for (sec, nanos) in [(0u32, 0u32), (0, 1_500_000)] {
            buf.extend_from_slice(&sec.to_le_bytes());
            buf.extend_from_slice(&nanos.to_le_bytes());
            buf.extend_from_slice(&(inner.len() as u32).to_le_bytes());
            buf.extend_from_slice(&(inner.len() as u32).to_le_bytes());
            buf.extend_from_slice(&inner);
        }
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.next_record().unwrap().unwrap().timestamp, Micros(0));
        assert_eq!(r.next_record().unwrap().unwrap().timestamp, Micros(1500));
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        assert!(matches!(
            PcapReader::new(&buf[..]),
            Err(PacketError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_record_is_error_not_silent_eof() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_frame(&frame(0, 100)).unwrap();
        }
        buf.truncate(buf.len() - 10);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(r.next_record().is_err());
    }

    #[test]
    fn negative_timestamp_rejected_on_write() {
        let mut f = frame(0, 1);
        f.timestamp = Micros(-1);
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        assert!(w.write_frame(&f).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("tdat_pcap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pcap");
        let frames = vec![frame(0, 3), frame(10, 7)];
        write_pcap_file(&path, &frames).unwrap();
        assert_eq!(read_pcap_file(&path).unwrap(), frames);
        std::fs::remove_file(&path).ok();
    }
}
