//! Pluggable packet sources for the monitoring engine.
//!
//! A [`PacketSource`] produces batches of [`TcpFrame`]s over time. Two
//! implementations ship with the crate:
//!
//! * [`FollowSource`] tails a growing pcap file on disk
//!   (tcpdump-style rotation feeds) via
//!   [`PcapFollower`] — partial trailing
//!   records are retried, never treated as corruption;
//! * [`SimSource`] drives the discrete-event simulator's
//!   [`LiveTap`], advancing virtual time step by
//!   step, optionally paced against the wall clock.
//!
//! Both are polled; a source never blocks. [`SourceEvent::Pending`]
//! tells the driver to wait (wall clock) and retry.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tdat_packet::{CaptureAnomaly, LossyDecoder, PacketError, PcapFollower, Result, TcpFrame};
use tdat_tcpsim::scenario::{build_scenario, ScenarioOptions};
use tdat_tcpsim::LiveTap;
use tdat_timeset::faultpoint::FaultPlan;
use tdat_timeset::Micros;
use tdat_trace::ConnKey;

/// One poll's outcome.
#[derive(Debug)]
pub enum SourceEvent {
    /// New frames (possibly none), plus the source's clock after them
    /// when the source has one of its own (`None` means trace time is
    /// carried by the frame timestamps alone).
    Batch {
        /// The frames, in capture order.
        frames: Vec<TcpFrame>,
        /// The source clock after this batch, if it runs ahead of the
        /// frame timestamps (a simulator stepping through silence).
        now: Option<Micros>,
    },
    /// Nothing available right now; poll again after a short wait.
    Pending,
    /// The source is exhausted; no further frames will ever appear.
    Finished,
}

/// A capture anomaly the source survived, tied to the connection it
/// damaged when the addresses were still readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributedAnomaly {
    /// The damaged connection, if the frame (or at least its endpoint
    /// addresses) could be decoded; `None` for damage the capture lost
    /// beyond attribution.
    pub key: Option<ConnKey>,
    /// What went wrong.
    pub anomaly: CaptureAnomaly,
}

/// A pollable producer of captured frames.
pub trait PacketSource {
    /// Polls for the next event without blocking on packet arrival.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or on input damaged beyond the source's
    /// recovery strategy (a follow-mode tail that stays unreadable past
    /// the bounded resynchronization scan, for example). A supervising
    /// [`SourceSet`](crate::SourceSet) may classify the error as
    /// transient ([`PacketError::is_transient`]) and
    /// [`reopen`](Self::reopen) the source.
    fn poll(&mut self) -> Result<SourceEvent>;

    /// Reopens the source in place after a transient error, so that it
    /// reads on from where it stopped. The default cannot, and a source
    /// added with [`SourceSetBuilder::custom`](crate::SourceSetBuilder::custom)
    /// is never asked: its first error is terminal.
    ///
    /// # Errors
    ///
    /// Says why the source could not reopen (yet).
    fn reopen(&mut self) -> std::result::Result<(), String> {
        Err("this source cannot reopen".to_string())
    }

    /// Takes the capture anomalies the source survived since the last
    /// drain. Sources over trustworthy feeds (the simulator) never
    /// produce any; the default returns nothing.
    fn drain_anomalies(&mut self) -> Vec<AttributedAnomaly> {
        Vec::new()
    }

    /// Notes a turn on which the reader did not poll this source
    /// because the frames of its last batch still wait to be consumed
    /// (a [`SourceSet`](crate::SourceSet) merging it behind a slower
    /// sibling). A wall-clock idle budget must not run during such a
    /// wait. The default does nothing.
    fn held(&mut self) {}
}

/// Capture bytes one [`FollowSource`] poll reads, counted over whole
/// records (headers included): a poll stops at the first record that
/// reaches it, so one batch holds at most this plus one record, however
/// large the frames.
const READ_BUDGET: u64 = 256 * 1024;

/// Frames a poll's batch has room for before it grows: the budget over
/// a 512-byte record, between a bare ACK (70 bytes with its record
/// header) and a full segment (1 530).
const READ_FRAMES: usize = (READ_BUDGET / 512) as usize;

/// Tails a growing pcap file on disk through the lossy decoder:
/// damaged records become [`AttributedAnomaly`] entries instead of
/// terminal errors, so a sniffer glitch never kills the watch.
#[derive(Debug)]
pub struct FollowSource {
    /// The capture file, opened afresh by each reopen.
    path: PathBuf,
    follower: PcapFollower<File>,
    decoder: LossyDecoder,
    anomalies: Vec<AttributedAnomaly>,
    /// An error met after a poll had consumed records: the poll
    /// delivers them, and the next poll reports it.
    error: Option<PacketError>,
    /// Report [`SourceEvent::Finished`] after this long (wall clock)
    /// without a single new record; `None` follows forever.
    exit_idle: Option<Duration>,
    /// When the source last consumed a record; `None` until the first
    /// record arrives, so the idle budget never runs against a capture
    /// that is still slow to start (unless
    /// [`idle_from_open`](Self::idle_from_open) armed it).
    last_progress: Option<Instant>,
}

impl FollowSource {
    /// Opens a capture file for tailing. The file must exist but may be
    /// empty (even mid-header); content is consumed as it grows. The
    /// source follows forever until an idle budget is set with
    /// [`with_exit_idle`](Self::with_exit_idle).
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened.
    pub fn tail(path: impl AsRef<Path>) -> Result<FollowSource> {
        Ok(FollowSource {
            path: path.as_ref().to_path_buf(),
            follower: PcapFollower::open(path)?,
            decoder: LossyDecoder::new(),
            anomalies: Vec::new(),
            error: None,
            exit_idle: None,
            last_progress: None,
        })
    }

    /// Sets the idle budget: the source reports
    /// [`SourceEvent::Finished`] after this long (wall clock) without a
    /// new record. The clock starts at the *first consumed record* —
    /// not at open — so a slow-to-start capture with a short budget is
    /// not abandoned before its first frame.
    pub fn with_exit_idle(mut self, exit_idle: Duration) -> FollowSource {
        self.exit_idle = Some(exit_idle);
        self
    }

    /// Arms the idle clock immediately at open instead of at the first
    /// consumed record — for draining a *static* capture corpus where a
    /// file may legitimately hold no records at all and the drain must
    /// still terminate.
    pub fn idle_from_open(mut self) -> FollowSource {
        self.last_progress = Some(Instant::now());
        self
    }

    /// Attaches a fault-injection plan to the underlying follower (the
    /// `follow.read` and `follow.short_read` points).
    pub fn with_faults(mut self, faults: FaultPlan) -> FollowSource {
        self.follower = self.follower.with_faults(faults);
        self
    }
}

impl PacketSource for FollowSource {
    fn poll(&mut self) -> Result<SourceEvent> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let start = self.follower.offset();
        let mut frames = Vec::with_capacity(READ_FRAMES);
        let mut consumed = false;
        while self.follower.offset() - start < READ_BUDGET {
            match self.follower.poll_lossy(&mut self.decoder) {
                Ok(Some(lossy)) => {
                    consumed = true;
                    let key = match &lossy.frame {
                        Some(frame) => Some(ConnKey::of(frame)),
                        None => lossy.endpoints.map(|(x, y)| ConnKey::of_endpoints(x, y)),
                    };
                    self.anomalies.extend(
                        lossy
                            .anomalies
                            .into_iter()
                            .map(|anomaly| AttributedAnomaly { key, anomaly }),
                    );
                    if let Some(frame) = lossy.frame {
                        frames.push(frame);
                    }
                }
                Ok(None) => break,
                // The records read so far are past the committed
                // offset, so this poll must deliver them.
                Err(e) if consumed => {
                    self.error = Some(e);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if !consumed {
            if let (Some(limit), Some(last)) = (self.exit_idle, self.last_progress) {
                if last.elapsed() >= limit {
                    return Ok(SourceEvent::Finished);
                }
            }
            return Ok(SourceEvent::Pending);
        }
        self.last_progress = Some(Instant::now());
        Ok(SourceEvent::Batch { frames, now: None })
    }

    /// A fresh handle on the file: the same capture resumes at its
    /// committed byte offset, and a rotated or truncated one is read
    /// from its start on the same clock ([`PcapFollower::reopen`]). The
    /// idle clock restarts, so a rotated file has the whole budget to
    /// show its first record.
    fn reopen(&mut self) -> std::result::Result<(), String> {
        File::open(&self.path)
            .map_err(PacketError::from)
            .and_then(|file| self.follower.reopen(file))
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        self.held();
        Ok(())
    }

    fn drain_anomalies(&mut self) -> Vec<AttributedAnomaly> {
        std::mem::take(&mut self.anomalies)
    }

    /// A batch that waits is progress: the idle clock restarts, so the
    /// budget counts only the time the source is read and found idle.
    fn held(&mut self) {
        if let Some(last) = &mut self.last_progress {
            *last = Instant::now();
        }
    }
}

/// Drives a simulated scenario as a live packet feed.
#[derive(Debug)]
pub struct SimSource {
    tap: LiveTap,
}

impl SimSource {
    /// Wraps an already-configured live tap.
    pub fn new(tap: LiveTap) -> SimSource {
        SimSource { tap }
    }

    /// Builds a canonical scenario (the `bgpsim` vocabulary, see
    /// [`build_scenario`]) and drives it in `step`-sized virtual-time
    /// increments, as fast as possible (deterministic). Use
    /// [`with_pace`](Self::with_pace) to track the wall clock instead.
    ///
    /// # Errors
    ///
    /// Returns the scenario parser's message for an unknown spec.
    pub fn scenario(
        spec: &str,
        opts: &ScenarioOptions,
        step: Micros,
    ) -> std::result::Result<SimSource, String> {
        let built = build_scenario(spec, opts)?;
        let tap = LiveTap::new(built.sim, built.sniffer, step, built.horizon);
        Ok(SimSource::new(tap))
    }

    /// Paces the drive against the wall clock: `factor` virtual seconds
    /// elapse per wall second (1.0 tracks real time).
    pub fn with_pace(self, factor: f64) -> SimSource {
        SimSource {
            tap: self.tap.paced(factor),
        }
    }
}

impl PacketSource for SimSource {
    fn poll(&mut self) -> Result<SourceEvent> {
        match self.tap.advance() {
            Some(frames) => Ok(SourceEvent::Batch {
                frames,
                now: Some(self.tap.virtual_now()),
            }),
            None => Ok(SourceEvent::Finished),
        }
    }

    /// Nothing to do: only an injected poll fault downs a simulator, and
    /// that fault never reached the tap, which goes on from where it
    /// stopped.
    fn reopen(&mut self) -> std::result::Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Unique-per-test temp file holding `bytes`; cleaned up on drop.
    struct TempPcap(std::path::PathBuf);

    impl TempPcap {
        fn create(name: &str, bytes: &[u8]) -> TempPcap {
            let dir = std::env::temp_dir().join("tdat_source_test");
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = dir.join(format!("{}_{}.pcap", name, std::process::id()));
            let mut f = std::fs::File::create(&path).expect("create");
            f.write_all(bytes).expect("write");
            TempPcap(path)
        }
    }

    impl Drop for TempPcap {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn capture_bytes() -> Vec<u8> {
        let frame = tdat_packet::FrameBuilder::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        )
        .at(Micros::from_millis(1))
        .ports(179, 40000)
        .seq(1)
        .payload(vec![0xee; 64])
        .build();
        let mut buf = Vec::new();
        let mut w = tdat_packet::PcapWriter::new(&mut buf).expect("writer");
        w.write_frame(&frame).expect("frame");
        buf
    }

    #[test]
    fn follow_source_reads_then_goes_pending_then_idles_out() {
        let file = TempPcap::create("follow_source", &capture_bytes());
        let mut src = FollowSource::tail(&file.0)
            .expect("open")
            .with_exit_idle(Duration::from_millis(10));
        match src.poll().expect("poll") {
            SourceEvent::Batch { frames, now } => {
                assert_eq!(frames.len(), 1);
                assert_eq!(now, None);
            }
            other => panic!("expected a batch, got {other:?}"),
        }
        assert!(matches!(src.poll().expect("poll"), SourceEvent::Pending));
        std::thread::sleep(Duration::from_millis(15));
        assert!(matches!(src.poll().expect("poll"), SourceEvent::Finished));
    }

    #[test]
    fn one_poll_reads_the_budget_and_at_most_one_record_more() {
        // 60 jumbo frames of 9 000 payload bytes: 9 070 bytes a record
        // with its header, 544 200 in all.
        let capture: Vec<TcpFrame> = (0..60)
            .map(|k| {
                tdat_packet::FrameBuilder::new(
                    "10.0.0.1".parse().unwrap(),
                    "10.0.0.2".parse().unwrap(),
                )
                .at(Micros::from_millis(k))
                .ports(179, 40000)
                .seq(1 + 9_000 * k as u32)
                .payload(vec![0xee; 9_000])
                .build()
            })
            .collect();
        let record = 16 + capture[0].to_wire().len() as u64;
        assert_eq!(record, 9_070);
        let mut bytes = Vec::new();
        let mut w = tdat_packet::PcapWriter::new(&mut bytes).expect("writer");
        for frame in &capture {
            w.write_frame(frame).expect("frame");
        }
        let file = TempPcap::create("read_budget", &bytes);
        let mut src = FollowSource::tail(&file.0).expect("open");
        let mut reads = Vec::new();
        while let SourceEvent::Batch { frames, .. } = src.poll().expect("poll") {
            reads.push(frames.len() as u64);
        }
        assert_eq!(reads.iter().sum::<u64>(), 60, "every frame is read once");
        for &n in &reads {
            assert!(n >= 1, "a poll reads at least one record");
            assert!(
                n * record <= READ_BUDGET + record,
                "a read of {n} records passed the budget: {reads:?}"
            );
        }
    }

    #[test]
    fn a_read_that_fails_midway_delivers_what_it_read_and_a_reopen_goes_on() {
        let capture: Vec<TcpFrame> = (0..5)
            .map(|k| {
                tdat_packet::FrameBuilder::new(
                    "10.0.0.1".parse().unwrap(),
                    "10.0.0.2".parse().unwrap(),
                )
                .at(Micros::from_millis(k))
                .ports(179, 40000)
                .seq(1 + 100 * k as u32)
                .payload(vec![0xee; 100])
                .build()
            })
            .collect();
        let mut bytes = Vec::new();
        let mut w = tdat_packet::PcapWriter::new(&mut bytes).expect("writer");
        for frame in &capture {
            w.write_frame(frame).expect("frame");
        }
        let file = TempPcap::create("fails_midway", &bytes);
        let faults = FaultPlan::parse("follow.read@hit=3", 0).expect("spec parses");
        let mut src = FollowSource::tail(&file.0)
            .expect("open")
            .with_faults(faults);
        let mut got = match src.poll().expect("the records before the fault") {
            SourceEvent::Batch { frames, .. } => frames,
            other => panic!("expected a batch, got {other:?}"),
        };
        assert_eq!(got.len(), 2);
        assert!(src.poll().expect_err("then the fault").is_transient());
        src.reopen().expect("the file is still there");
        while let SourceEvent::Batch { frames, .. } = src.poll().expect("poll") {
            got.extend(frames);
        }
        assert_eq!(got, capture, "every record once");
    }

    #[test]
    fn follow_source_survives_mid_file_garbage_and_attributes_damage() {
        // A good record, then garbage bytes, then another good record:
        // the source must deliver both frames and surface the damage as
        // attributed anomalies instead of dying.
        let mut bytes = capture_bytes();
        let second = capture_bytes();
        bytes.extend_from_slice(&[0xde; 200]);
        bytes.extend_from_slice(&second[24..]); // skip the global header
        let file = TempPcap::create("follow_garbage", &bytes);
        let mut src = FollowSource::tail(&file.0)
            .expect("open")
            .with_exit_idle(Duration::from_millis(10));
        let mut frames = 0usize;
        loop {
            match src.poll().expect("lossy follow never errors on damage") {
                SourceEvent::Batch { frames: batch, .. } => frames += batch.len(),
                SourceEvent::Pending => std::thread::sleep(Duration::from_millis(2)),
                SourceEvent::Finished => break,
            }
        }
        assert!(frames >= 1, "at least the first frame is recovered");
        let anomalies = src.drain_anomalies();
        assert!(!anomalies.is_empty(), "the garbage was noted");
        assert!(src.drain_anomalies().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn empty_file_with_short_idle_budget_waits_for_its_first_record() {
        // Regression: the idle clock must start at the first consumed
        // record, not at open — a slow-to-start capture with a short
        // budget must keep waiting, not exit empty-handed.
        let file = TempPcap::create("slow_start", b"");
        let mut src = FollowSource::tail(&file.0)
            .expect("open")
            .with_exit_idle(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(15));
        assert!(
            matches!(src.poll().expect("poll"), SourceEvent::Pending),
            "no record yet: the idle budget must not be running"
        );
        // The capture finally starts: the frame is delivered and the
        // idle clock arms only now.
        std::fs::write(&file.0, capture_bytes()).expect("write");
        loop {
            match src.poll().expect("poll") {
                SourceEvent::Batch { frames, .. } => {
                    assert_eq!(frames.len(), 1);
                    break;
                }
                SourceEvent::Pending => std::thread::sleep(Duration::from_millis(1)),
                SourceEvent::Finished => panic!("finished before the first record"),
            }
        }
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(src.poll().expect("poll"), SourceEvent::Finished));
    }

    #[test]
    fn idle_from_open_terminates_on_a_recordless_file() {
        // Corpus-drain mode: a static file with no records must still
        // let the drain finish.
        let file = TempPcap::create("recordless", b"");
        let mut src = FollowSource::tail(&file.0)
            .expect("open")
            .with_exit_idle(Duration::from_millis(5))
            .idle_from_open();
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(src.poll().expect("poll"), SourceEvent::Finished));
    }

    #[test]
    fn sim_source_streams_a_scenario_to_completion() {
        let opts = ScenarioOptions {
            routes: 200,
            ..ScenarioOptions::default()
        };
        let mut src = SimSource::scenario("clean", &opts, Micros::from_millis(50)).expect("build");
        let mut frames = 0usize;
        let mut last_now = Micros::ZERO;
        loop {
            match src.poll().expect("sim sources never error") {
                SourceEvent::Batch { frames: batch, now } => {
                    frames += batch.len();
                    let now = now.expect("sim clock always reported");
                    assert!(now >= last_now, "virtual time is monotonic");
                    last_now = now;
                }
                SourceEvent::Finished => break,
                SourceEvent::Pending => panic!("accelerated sims are never pending"),
            }
        }
        assert!(frames > 0, "the tap saw the transfer");
        assert!(last_now > Micros::ZERO);
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let err = SimSource::scenario("nosuch", &ScenarioOptions::default(), Micros::from_secs(1))
            .expect_err("unknown scenario");
        assert!(err.contains("nosuch"));
    }
}
