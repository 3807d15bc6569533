//! Follow-mode ("tail -f") reading of a growing pcap capture.
//!
//! A live capture process appends records to a pcap file while a
//! monitor reads it concurrently. At any instant the file may end in
//! the middle of a record — the capturer has written the 16-byte record
//! header but not yet all the captured bytes, or only part of the
//! header, or (right after the file was created) only part of the
//! 24-byte global header. None of those states is corruption; they are
//! simply *incomplete*, and the reader must retry from the same offset
//! once the file has grown.
//!
//! [`PcapFollower`] implements that polling discipline: it remembers
//! the byte offset of the last fully consumed record and, on each poll,
//! attempts to parse one more record from there. If the bytes are not
//! all present yet it reports [`None`] and leaves the committed offset
//! untouched, so the next poll picks the partial tail up again. A bad
//! magic number is still an error: growth can only ever fix missing
//! bytes, not wrong ones.
//!
//! After an I/O error or a rotation, [`PcapFollower::reopen`] takes a
//! fresh handle on the file: the same capture resumes at its committed
//! byte offset, and a rotated or truncated one is read from its start
//! on the same clock.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::error::{PacketError, Result};
use crate::lossy::{CaptureAnomaly, LossyDecoder, LossyFrame};
use crate::pcap::LINKTYPE_ETHERNET;
use crate::walk::{LossyStep, Source, Walker, Window, GLOBAL_HEADER_LEN, RESYNC_SCAN_LIMIT};
use tdat_timeset::faultpoint::FaultPlan;

/// The growing file as a byte source: a read window whose refill first
/// checks that the file has not shrunk, and for which "no more bytes"
/// means *not yet*.
#[derive(Debug)]
struct Tail<R> {
    window: Window<R>,
    /// Byte offset just past the last committed item (global header,
    /// record, or skipped garbage) — the window's position in the
    /// file. Read-ahead past it is invisible here.
    offset: u64,
    /// Largest file length ever observed. A followed capture only ever
    /// grows; any decrease means it was rotated or truncated.
    high_water: u64,
    /// Set once a shrink is detected; the follower is then poisoned
    /// until [`PcapFollower::reopen`] (waiting for regrowth would
    /// resync onto unrelated bytes at the committed offset).
    truncated: bool,
}

impl<R: Read + Seek> Source for Tail<R> {
    fn available(&self) -> &[u8] {
        self.window.available()
    }

    fn advance(&mut self, n: usize) {
        self.window.advance(n);
        self.offset += n as u64;
    }

    /// Errors if the file ever shrank, then reads on from where the
    /// window ends. A capture being followed is append-only; a length
    /// decrease means rotation or truncation, and resuming at the
    /// committed offset after regrowth would read bytes from an
    /// unrelated record stream. The condition is sticky until a
    /// reopen: a poll that cannot be served from the window comes back
    /// here and fails again rather than silently resynchronizing.
    fn refill(&mut self, want: usize) -> Result<bool> {
        let len = self.window.input.seek(SeekFrom::End(0))?;
        if len < self.high_water {
            self.truncated = true;
        }
        self.high_water = self.high_water.max(len);
        if self.truncated {
            return Err(PacketError::SourceTruncated {
                committed: self.offset,
                len,
            });
        }
        let read_from = self.offset + self.window.available().len() as u64;
        self.window.input.seek(SeekFrom::Start(read_from))?;
        self.window.refill(want)
    }
}

/// A pcap reader that tails a growing file: the lossy policy over a
/// source that can say "not yet" (see the crate docs, "Capture
/// ingest").
///
/// Unlike [`PcapReader`](crate::PcapReader), end-of-file is never an
/// error *or* a terminal condition: [`poll_lossy`] returns `Ok(None)`
/// whenever the next record is not fully written yet, and a later poll
/// picks up from the same committed offset. Timestamps are rebased to
/// the first record, matching the batch reader.
///
/// # Examples
///
/// ```no_run
/// use tdat_packet::{LossyDecoder, PcapFollower};
///
/// let mut follower = PcapFollower::open("live.pcap")?;
/// let mut decoder = LossyDecoder::new();
/// loop {
///     match follower.poll_lossy(&mut decoder)? {
///         Some(item) => println!("{:?}", item.frame),
///         None => std::thread::sleep(std::time::Duration::from_millis(50)),
///     }
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`poll_lossy`]: PcapFollower::poll_lossy
#[derive(Debug)]
pub struct PcapFollower<R> {
    tail: Tail<R>,
    /// `None` until the global header's 24 bytes have been written.
    walker: Option<Walker>,
    /// The global header the walker was opened on: a reopen that finds
    /// another is reading a new capture.
    header: [u8; GLOBAL_HEADER_LEN],
    /// The trace epoch the next walker takes: a rotated capture's
    /// records stay on its predecessor's clock.
    epoch: Option<i64>,
    records_read: u64,
    /// Fault-injection schedule; disabled (free to check) by default.
    faults: FaultPlan,
}

impl PcapFollower<File> {
    /// Opens a capture file for following. The file must exist but may
    /// still be empty: the global header is parsed lazily once its 24
    /// bytes have been written.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors opening the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(PcapFollower::new(File::open(path)?))
    }
}

impl<R: Read + Seek> PcapFollower<R> {
    /// Wraps any seekable reader positioned anywhere (the follower
    /// seeks absolutely on every refill).
    pub fn new(input: R) -> Self {
        PcapFollower {
            tail: Tail {
                window: Window::new(input),
                offset: 0,
                high_water: 0,
                truncated: false,
            },
            walker: None,
            header: [0; GLOBAL_HEADER_LEN],
            epoch: None,
            records_read: 0,
            faults: FaultPlan::disabled(),
        }
    }

    /// Attach a fault-injection plan. Each poll checks the
    /// `follow.read` point (fails as an I/O error) and the
    /// `follow.short_read` point (reports a pending partial tail).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Records fully consumed so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Byte offset just past the last fully consumed item (global
    /// header or record): everything before it has been delivered,
    /// everything after it has not been touched.
    pub fn offset(&self) -> u64 {
        self.tail.offset
    }

    /// The file's link type, once the global header has been read.
    pub fn link_type(&self) -> Option<u32> {
        self.walker.as_ref().map(Walker::link_type)
    }

    /// Attempts to read the next record lossily: capture damage becomes
    /// typed [`CaptureAnomaly`] items on the returned [`LossyFrame`]
    /// instead of errors, and garbage at the committed offset triggers
    /// a bounded forward scan for the next plausible record header
    /// rather than an eternal retry.
    ///
    /// `Ok(None)` means "not yet": the tail is a partial global header,
    /// a bare or partial record header, a record whose captured bytes
    /// are still being written, or garbage for which no
    /// resynchronization target has been written yet. The committed
    /// offset only advances over whole items, so polling again after
    /// the file grows resumes cleanly. `Ok(Some(..))` may carry a
    /// frame, anomalies, both, or neither (a consumed cross-traffic
    /// record) — poll again for more.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a bad magic number, a non-Ethernet link
    /// type, [`PacketError::SourceTruncated`] once the file has ever
    /// shrunk (sticky until [`reopen`](Self::reopen), since the
    /// committed offset no longer refers into the original record
    /// stream even if the file later regrows past it), or when a
    /// resynchronization scan exhausts its byte budget without finding
    /// a plausible record header (the file is garbage from the
    /// committed offset on, and retrying cannot fix it).
    pub fn poll_lossy(&mut self, decoder: &mut LossyDecoder) -> Result<Option<LossyFrame>> {
        if let Some(err) = self.faults.fail_io("follow.read") {
            return Err(err.into());
        }
        if self.faults.should_fail("follow.short_read") {
            return Ok(None);
        }
        if self.walker.is_none() {
            self.walker = Walker::open(&mut self.tail)?.map(|w| w.with_epoch(self.epoch));
            if self.walker.is_some() {
                let header = self.tail.window.behind(GLOBAL_HEADER_LEN);
                self.header.copy_from_slice(header);
            }
        }
        let Some(walker) = &mut self.walker else {
            return Ok(None);
        };
        if walker.link_type() != LINKTYPE_ETHERNET {
            return Err(PacketError::UnsupportedLinkType(walker.link_type()));
        }
        match walker.next_lossy(&mut self.tail)? {
            LossyStep::Record(record) => {
                self.records_read += 1;
                let wire = self.tail.window.behind(record.body_len);
                let item = decoder.decode_wire(record.timestamp, record.orig_len, wire);
                Ok(Some(item.to_lossy_frame()))
            }
            LossyStep::Resynced(skipped) => {
                let anomaly = CaptureAnomaly::Desynchronized { skipped };
                decoder.note(&anomaly);
                Ok(Some(LossyFrame {
                    anomalies: vec![anomaly],
                    ..LossyFrame::default()
                }))
            }
            // The file is still growing: whatever the tail lacks may
            // simply not have been appended yet.
            LossyStep::Short { .. } | LossyStep::NoTarget => Ok(None),
            // The bound that replaces retry-forever.
            LossyStep::BudgetSpent => Err(PacketError::Malformed {
                what: "pcap stream",
                detail: format!(
                    "no plausible record header within {RESYNC_SCAN_LIMIT} bytes of offset {}",
                    self.tail.offset
                ),
            }),
        }
    }

    /// Reads on through `input`, a fresh handle on the followed file,
    /// after an I/O error or once the file shrank.
    ///
    /// The file still holds the same capture when the follower never
    /// saw it shrink, it is at least as long as the follower ever saw
    /// it (so at least [`offset`](Self::offset) bytes), and its global
    /// header is the one the follower read. Reading then resumes at the
    /// committed offset under the same format state: the header is
    /// read to compare it, and no other byte before the offset.
    /// Otherwise the file holds a new capture (rotated or truncated in
    /// place), which is read from its start; its records keep this
    /// follower's trace epoch, so they land on the same clock as the
    /// records before them.
    ///
    /// # Errors
    ///
    /// Fails on an I/O error measuring `input` or reading its header.
    pub fn reopen(&mut self, mut input: R) -> Result<()> {
        let len = input.seek(SeekFrom::End(0))?;
        let mut same = !self.tail.truncated && len >= self.tail.high_water;
        if same && self.walker.is_some() {
            let mut header = [0; GLOBAL_HEADER_LEN];
            input.seek(SeekFrom::Start(0))?;
            input.read_exact(&mut header)?;
            same = header == self.header;
        }
        if !same {
            self.epoch = self.walker.take().map_or(self.epoch, |w| w.epoch());
            self.tail.offset = 0;
            self.tail.high_water = 0;
            self.tail.truncated = false;
        }
        self.tail.window = Window::new(input);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameBuilder, TcpFrame};
    use crate::pcap::PcapWriter;
    use std::io::{self, Write};
    use std::net::Ipv4Addr;
    use tdat_timeset::Micros;

    /// A follower with its decoder, polled for clean TCP frames: any
    /// anomaly or cross-traffic record fails the test.
    struct Polled<R> {
        follower: PcapFollower<R>,
        decoder: LossyDecoder,
    }

    impl<R: Read + Seek> Polled<R> {
        fn new(follower: PcapFollower<R>) -> Polled<R> {
            Polled {
                follower,
                decoder: LossyDecoder::new(),
            }
        }

        fn poll_frame(&mut self) -> Result<Option<TcpFrame>> {
            let item = self.follower.poll_lossy(&mut self.decoder)?;
            Ok(item.map(|item| {
                assert_eq!(item.anomalies, vec![], "clean capture");
                item.frame.expect("a TCP frame")
            }))
        }
    }

    fn open(file: &GrowingFile) -> Polled<File> {
        Polled::new(PcapFollower::open(&file.path).unwrap())
    }

    fn frame(t_ms: i64, len: usize) -> TcpFrame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(Micros::from_millis(t_ms))
            .ports(179, 40000)
            .seq(1)
            .payload(vec![0xab; len])
            .build()
    }

    fn encode(frames: &[TcpFrame]) -> Vec<u8> {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            for f in frames {
                w.write_frame(f).unwrap();
            }
        }
        buf
    }

    /// A growing temp file the tests can append to byte by byte.
    struct GrowingFile {
        path: std::path::PathBuf,
        out: File,
    }

    impl GrowingFile {
        fn create(name: &str) -> GrowingFile {
            let dir = std::env::temp_dir().join("tdat_follow_test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            let out = File::create(&path).unwrap();
            GrowingFile { path, out }
        }

        fn append(&mut self, bytes: &[u8]) {
            self.out.write_all(bytes).unwrap();
            self.out.flush().unwrap();
        }
    }

    impl Drop for GrowingFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.path).ok();
        }
    }

    #[test]
    fn byte_at_a_time_growth_never_errors_and_yields_every_frame() {
        let frames = vec![frame(0, 10), frame(5, 0), frame(12, 300)];
        let bytes = encode(&frames);
        let mut file = GrowingFile::create("byte_at_a_time.pcap");
        let mut follower = open(&file);
        let mut got = Vec::new();
        for b in &bytes {
            // Before the byte lands, the tail is partial: poll must
            // report Pending (None), never an error.
            assert!(follower.poll_frame().unwrap().is_none());
            file.append(std::slice::from_ref(b));
            if let Some(f) = follower.poll_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        // Fully drained: further polls stay Pending.
        assert!(follower.poll_frame().unwrap().is_none());
        assert_eq!(follower.follower.records_read(), 3);
    }

    #[test]
    fn truncated_final_record_is_retried_not_corruption() {
        let frames = vec![frame(0, 100), frame(7, 200)];
        let bytes = encode(&frames);
        // Stop 10 bytes short of the second record's end.
        let cut = bytes.len() - 10;
        let mut file = GrowingFile::create("truncated_tail.pcap");
        file.append(&bytes[..cut]);
        let mut follower = open(&file);
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[0].clone()));
        // The second record is incomplete: repeated polls report
        // Pending and do not lose position.
        for _ in 0..3 {
            assert!(follower.poll_frame().unwrap().is_none());
        }
        file.append(&bytes[cut..]);
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[1].clone()));
    }

    #[test]
    fn partial_global_header_is_pending() {
        let bytes = encode(&[frame(0, 5)]);
        let mut file = GrowingFile::create("partial_header.pcap");
        file.append(&bytes[..13]); // half the global header
        let mut follower = open(&file);
        assert!(follower.poll_frame().unwrap().is_none());
        assert!(follower.follower.link_type().is_none());
        file.append(&bytes[13..]);
        assert!(follower.poll_frame().unwrap().is_some());
        assert_eq!(follower.follower.link_type(), Some(LINKTYPE_ETHERNET));
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        let mut file = GrowingFile::create("bad_magic.pcap");
        file.append(&[0u8; 24]);
        let mut follower = open(&file);
        for _ in 0..2 {
            assert!(matches!(
                follower.poll_frame(),
                Err(PacketError::BadMagic(_))
            ));
        }
    }

    #[test]
    fn shrunken_file_is_a_sticky_typed_error_not_an_infinite_retry() {
        let frames = vec![frame(0, 100), frame(7, 200), frame(9, 50)];
        let bytes = encode(&frames);
        let mut file = GrowingFile::create("shrunk_then_regrown.pcap");
        file.append(&bytes);
        let mut follower = open(&file);
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[0].clone()));
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[1].clone()));
        // The capture is rotated: truncated below the committed offset.
        file.out.set_len(30).unwrap();
        // The third record was read ahead while the file still held it:
        // it belongs to the original stream and is delivered. The next
        // poll has to go back to the file, and finds it shrunk.
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[2].clone()));
        match follower.poll_frame() {
            Err(PacketError::SourceTruncated { committed, len }) => {
                assert_eq!(len, 30);
                assert!(committed > len, "offset {committed} was past EOF {len}");
            }
            other => panic!("expected SourceTruncated, got {other:?}"),
        }
        // Regrowing past the old offset must not resynchronize the
        // follower onto unrelated bytes: the error is sticky.
        file.append(&bytes);
        for _ in 0..3 {
            assert!(matches!(
                follower.poll_frame(),
                Err(PacketError::SourceTruncated { .. })
            ));
        }
        assert_eq!(follower.follower.records_read(), 3);
    }

    #[test]
    fn timestamps_rebase_to_first_record() {
        let frames = vec![frame(1_000_000, 1), frame(1_000_500, 1)];
        let mut file = GrowingFile::create("epoch.pcap");
        file.append(&encode(&frames));
        let mut follower = open(&file);
        assert_eq!(
            follower.poll_frame().unwrap().unwrap().timestamp,
            Micros::ZERO
        );
        assert_eq!(
            follower.poll_frame().unwrap().unwrap().timestamp,
            Micros::from_millis(500)
        );
    }

    #[test]
    fn garbage_tail_resyncs_instead_of_retrying_forever() {
        // The tail of the file is mid-record *garbage* (an implausible
        // record header), not a clean partial record; waiting for it
        // to complete would wait forever for bytes that are never
        // coming. Lossy polling must (a) stay pending while no
        // resync target exists, then (b) skip the garbage and resume
        // at the first plausible record appended after it.
        let first = frame(0, 80);
        let second = frame(15, 120);
        let mut file = GrowingFile::create("garbage_tail.pcap");
        file.append(&encode(std::slice::from_ref(&first)));
        file.append(&[0xff; 41]); // mid-record garbage, implausible header
        let mut follower = PcapFollower::open(&file.path).unwrap();
        let mut decoder = LossyDecoder::new();
        let got = follower.poll_lossy(&mut decoder).unwrap().unwrap();
        assert_eq!(got.frame, Some(first));
        // Garbage tail with nothing to resync onto: pending, not error,
        // and crucially not an infinite busy success.
        for _ in 0..3 {
            assert!(follower.poll_lossy(&mut decoder).unwrap().is_none());
        }
        // A real record lands after the garbage: the follower skips the
        // garbage (counted) and resumes.
        let tail = encode(std::slice::from_ref(&second));
        file.append(&tail[24..]);
        let resync = follower.poll_lossy(&mut decoder).unwrap().unwrap();
        assert!(matches!(
            resync.anomalies[0],
            CaptureAnomaly::Desynchronized { skipped: 41 }
        ));
        let got = follower.poll_lossy(&mut decoder).unwrap().unwrap();
        let got_frame = got.frame.unwrap();
        assert_eq!(got_frame.payload_len(), 120);
        assert_eq!(decoder.counts().desynchronizations, 1);
    }

    #[test]
    fn resync_scan_is_bounded_not_eternal() {
        let mut file = GrowingFile::create("unbounded_garbage.pcap");
        file.append(&encode(&[frame(0, 10)]));
        // Way past the scan budget, all implausible.
        file.append(&vec![0xee; RESYNC_SCAN_LIMIT + 64]);
        let mut follower = PcapFollower::open(&file.path).unwrap();
        let mut decoder = LossyDecoder::new();
        assert!(follower
            .poll_lossy(&mut decoder)
            .unwrap()
            .unwrap()
            .frame
            .is_some());
        assert!(matches!(
            follower.poll_lossy(&mut decoder),
            Err(PacketError::Malformed { .. })
        ));
    }

    #[test]
    fn lossy_poll_reads_clean_files_like_strict() {
        let frames = vec![frame(0, 10), frame(5, 0), frame(12, 300)];
        let mut file = GrowingFile::create("lossy_clean.pcap");
        file.append(&encode(&frames));
        let mut follower = PcapFollower::open(&file.path).unwrap();
        let mut decoder = LossyDecoder::new();
        let mut got = Vec::new();
        while let Some(item) = follower.poll_lossy(&mut decoder).unwrap() {
            got.extend(item.frame);
        }
        assert_eq!(got, frames);
        assert_eq!(decoder.counts().total(), 0);
    }

    #[test]
    fn a_quiet_day_is_not_corruption() {
        // Two days of silence after the second record. The clock-step
        // bound judges resync candidates only; an in-sequence record
        // that far on is just a quiet link, through either lossy path.
        const DAY_MS: i64 = 86_400_000;
        let frames = vec![
            frame(0, 10),
            frame(5, 20),
            frame(2 * DAY_MS + 7, 30),
            frame(2 * DAY_MS + 9, 0),
            frame(2 * DAY_MS + 12, 40),
        ];
        let bytes = encode(&frames);
        let strict = crate::PcapReader::new(&bytes[..])
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(strict, frames);

        let mut reader = crate::LossyReader::new(&bytes[..]).unwrap();
        let mut got = Vec::new();
        while let Some(item) = reader.next_lossy().unwrap() {
            got.extend(item.frame);
        }
        assert_eq!(got, strict);
        assert_eq!(reader.counts().total(), 0);

        let mut follower = Polled::new(PcapFollower::new(io::Cursor::new(bytes)));
        let mut got = Vec::new();
        while let Some(frame) = follower.poll_frame().unwrap() {
            got.push(frame);
        }
        assert_eq!(got, strict);
        assert_eq!(follower.decoder.counts().total(), 0);
    }

    #[test]
    fn injected_read_faults_error_then_clear() {
        let frames = vec![frame(0, 10), frame(5, 20)];
        let mut file = GrowingFile::create("fault_read.pcap");
        file.append(&encode(&frames));
        let faults = FaultPlan::parse("follow.read@hit=2", 0).unwrap();
        let mut follower = Polled::new(PcapFollower::open(&file.path).unwrap().with_faults(faults));
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[0].clone()));
        let err = follower.poll_frame().unwrap_err();
        assert!(matches!(err, PacketError::Io(_)));
        assert!(err.is_transient());
        assert!(err.to_string().contains("follow.read"));
        // The fault was a blip, not corruption: the committed offset
        // never moved, so the next poll resumes cleanly.
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[1].clone()));
    }

    #[test]
    fn injected_short_reads_report_pending() {
        let frames = vec![frame(0, 10)];
        let mut file = GrowingFile::create("fault_short.pcap");
        file.append(&encode(&frames));
        let faults = FaultPlan::parse("follow.short_read@hits=1..2", 0).unwrap();
        let mut follower = Polled::new(PcapFollower::open(&file.path).unwrap().with_faults(faults));
        assert!(follower.poll_frame().unwrap().is_none());
        assert!(follower.poll_frame().unwrap().is_none());
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[0].clone()));
    }

    #[test]
    fn offset_accessor_tracks_committed_records() {
        let frames = vec![frame(0, 10), frame(5, 0)];
        let bytes = encode(&frames);
        let mut follower = Polled::new(PcapFollower::new(io::Cursor::new(bytes.clone())));
        assert_eq!(follower.follower.offset(), 0);
        follower.poll_frame().unwrap().unwrap();
        follower.poll_frame().unwrap().unwrap();
        assert_eq!(follower.follower.offset(), bytes.len() as u64);
    }

    /// A reader over fixed bytes that logs the span of every read.
    struct Logged {
        bytes: io::Cursor<Vec<u8>>,
        reads: std::rc::Rc<std::cell::RefCell<Vec<std::ops::Range<u64>>>>,
    }

    impl Logged {
        fn new(bytes: &[u8]) -> Logged {
            Logged {
                bytes: io::Cursor::new(bytes.to_vec()),
                reads: Default::default(),
            }
        }
    }

    impl Read for Logged {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let at = self.bytes.position();
            let n = self.bytes.read(buf)?;
            if n > 0 {
                self.reads.borrow_mut().push(at..at + n as u64);
            }
            Ok(n)
        }
    }

    impl Seek for Logged {
        fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
            self.bytes.seek(to)
        }
    }

    #[test]
    fn a_reopen_in_place_reads_nothing_before_the_committed_offset_but_the_header() {
        let frames: Vec<TcpFrame> = (0..8).map(|k| frame(10 * k, 200)).collect();
        let bytes = encode(&frames);
        let record = (bytes.len() - GLOBAL_HEADER_LEN) / frames.len();
        let first = GLOBAL_HEADER_LEN + 5 * record;
        let mut follower = Polled::new(PcapFollower::new(Logged::new(&bytes[..first])));
        for f in &frames[..5] {
            assert_eq!(follower.poll_frame().unwrap().as_ref(), Some(f));
        }
        assert!(follower.poll_frame().unwrap().is_none());
        let committed = follower.follower.offset();
        assert_eq!(committed, first as u64);

        // The file grew while its old handle failed; a fresh handle on
        // the whole file continues where the follower stopped.
        let fresh = Logged::new(&bytes);
        let reads = fresh.reads.clone();
        follower.follower.reopen(fresh).unwrap();
        assert_eq!(follower.follower.offset(), committed, "resumed in place");
        let mut got = Vec::new();
        while let Some(f) = follower.poll_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames[5..]);
        let reads = reads.borrow();
        assert_eq!(reads[0], 0..GLOBAL_HEADER_LEN as u64, "the header check");
        for read in &reads[1..] {
            assert!(read.start >= committed, "read {read:?} before {committed}");
        }
        let total: u64 = reads.iter().map(|r| r.end - r.start).sum();
        assert_eq!(
            total,
            GLOBAL_HEADER_LEN as u64 + (bytes.len() - first) as u64
        );
    }

    #[test]
    fn a_rotated_capture_is_read_from_its_start_on_the_same_clock() {
        let old: Vec<TcpFrame> = (0..6).map(|k| frame(1_000 + 10 * k, 300)).collect();
        let successor: Vec<TcpFrame> = (0..2).map(|k| frame(2_000 + 10 * k, 20)).collect();
        let mut file = GrowingFile::create("rotated_in_place.pcap");
        file.append(&encode(&old));
        let mut follower = open(&file);
        while follower.poll_frame().unwrap().is_some() {}
        // Truncated in place and rewritten with a shorter capture.
        file.out.set_len(0).unwrap();
        file.out.seek(SeekFrom::Start(0)).unwrap();
        file.append(&encode(&successor));
        assert!(matches!(
            follower.poll_frame(),
            Err(PacketError::SourceTruncated { .. })
        ));
        follower
            .follower
            .reopen(File::open(&file.path).unwrap())
            .unwrap();
        assert_eq!(follower.follower.offset(), 0, "read from its start");
        let mut got = Vec::new();
        while let Some(f) = follower.poll_frame().unwrap() {
            got.push(f.timestamp);
        }
        // The old capture's first record, at 1 s, stays the epoch.
        assert_eq!(
            got,
            vec![Micros::from_millis(1_000), Micros::from_millis(1_010)]
        );
    }

    #[test]
    fn a_changed_global_header_is_a_new_capture() {
        let frames: Vec<TcpFrame> = (0..3).map(|k| frame(10 * k, 50)).collect();
        let bytes = encode(&frames);
        let mut follower = Polled::new(PcapFollower::new(io::Cursor::new(bytes.clone())));
        assert!(follower.poll_frame().unwrap().is_some());
        // As long again, but under another snap length: not the capture
        // the follower was reading.
        let later: Vec<TcpFrame> = (0..3).map(|k| frame(100 + 10 * k, 50)).collect();
        let mut other = encode(&later);
        other[16] ^= 1;
        follower.follower.reopen(io::Cursor::new(other)).unwrap();
        assert_eq!(follower.follower.offset(), 0);
        let mut got = Vec::new();
        while let Some(f) = follower.poll_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, later);
    }

    #[test]
    fn in_memory_cursor_works() {
        let frames = vec![frame(0, 40)];
        let bytes = encode(&frames);
        let mut follower = Polled::new(PcapFollower::new(io::Cursor::new(bytes)));
        assert_eq!(follower.poll_frame().unwrap(), Some(frames[0].clone()));
        assert!(follower.poll_frame().unwrap().is_none());
    }
}
