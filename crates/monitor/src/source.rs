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

use std::path::Path;
use std::time::{Duration, Instant};

use tdat_packet::{CaptureAnomaly, LossyDecoder, PcapFollower, Result, TcpFrame};
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

/// The recovery cursor one source contributes to a monitor
/// checkpoint: how far into its backing file the source has committed.
/// Sources without a byte-addressable backing (the simulator) have
/// none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceCursor {
    /// Byte offset just past the last fully consumed pcap item.
    pub offset: u64,
    /// Complete records consumed so far.
    pub records_read: u64,
}

/// A pollable producer of captured frames.
pub trait PacketSource {
    /// Polls for the next event without blocking on packet arrival.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or on input damaged beyond the source's
    /// recovery strategy (a follow-mode tail that stays unreadable past
    /// the bounded resynchronization scan, for example). Errors are
    /// terminal *for this source object*; a supervising
    /// [`SourceSet`](crate::SourceSet) may classify the error as
    /// transient ([`PacketError::is_transient`](tdat_packet::PacketError::is_transient))
    /// and resurrect the source by reopening its spec.
    fn poll(&mut self) -> Result<SourceEvent>;

    /// Takes the capture anomalies the source survived since the last
    /// drain. Sources over trustworthy feeds (the simulator) never
    /// produce any; the default returns nothing.
    fn drain_anomalies(&mut self) -> Vec<AttributedAnomaly> {
        Vec::new()
    }

    /// The source's recovery cursor for checkpointing, when it has
    /// one. The default reports none.
    fn cursor(&self) -> Option<SourceCursor> {
        None
    }
}

/// Frames read at most per [`FollowSource`] poll, bounding the latency
/// between a burst landing on disk and the analysis tick seeing its
/// first half.
const FOLLOW_BATCH: usize = 4096;

/// Tails a growing pcap file on disk through the lossy decoder:
/// damaged records become [`AttributedAnomaly`] entries instead of
/// terminal errors, so a sniffer glitch never kills the watch.
#[derive(Debug)]
pub struct FollowSource {
    follower: PcapFollower<std::fs::File>,
    decoder: LossyDecoder,
    anomalies: Vec<AttributedAnomaly>,
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
            follower: PcapFollower::open(path)?,
            decoder: LossyDecoder::new(),
            anomalies: Vec::new(),
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

    /// Complete records consumed so far.
    pub fn records_read(&self) -> u64 {
        self.follower.records_read()
    }

    /// Total capture anomalies survived so far (drained or not).
    pub fn anomaly_total(&self) -> u64 {
        self.decoder.counts().total()
    }
}

impl PacketSource for FollowSource {
    fn poll(&mut self) -> Result<SourceEvent> {
        let mut frames = Vec::new();
        let mut consumed = false;
        while frames.len() < FOLLOW_BATCH {
            match self.follower.poll_lossy(&mut self.decoder)? {
                Some(lossy) => {
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
                None => break,
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

    fn drain_anomalies(&mut self) -> Vec<AttributedAnomaly> {
        std::mem::take(&mut self.anomalies)
    }

    fn cursor(&self) -> Option<SourceCursor> {
        Some(SourceCursor {
            offset: self.follower.offset(),
            records_read: self.follower.records_read(),
        })
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

    /// Virtual time the simulation has been driven to.
    pub fn virtual_now(&self) -> Micros {
        self.tap.virtual_now()
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
        assert_eq!(src.records_read(), 1);
        assert!(matches!(src.poll().expect("poll"), SourceEvent::Pending));
        std::thread::sleep(Duration::from_millis(15));
        assert!(matches!(src.poll().expect("poll"), SourceEvent::Finished));
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
        assert!(src.anomaly_total() >= anomalies.len() as u64);
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
