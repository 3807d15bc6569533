//! Multiplexed, identity-carrying source sets.
//!
//! One production monitor rarely watches a single capture: a collector
//! fleet produces one feed per vantage point, plus simulator taps in
//! testbeds. [`SourceSet`] composes N [`PacketSource`]s behind one
//! poll loop and assigns each a typed [`SourceId`] plus a stable name,
//! so every frame, capture anomaly, and failure stays attributed to
//! the feed it came from — one bad collector degrades only its own
//! view.
//!
//! # Merge discipline
//!
//! Sources run on independent clocks; naively interleaving their
//! batches would let a fast source race the monitor's analysis ticks
//! ahead of a slow sibling's frames. The set therefore merges by
//! *watermark*: each source's watermark is the latest trace timestamp
//! it is known to have passed (its last buffered frame, or its own
//! clock for simulator taps), and frames are released only up to the
//! minimum watermark over the live sources — globally ordered by
//! timestamp, ties broken by source index, FIFO within a source.
//!
//! A source sitting exactly at that minimum may still deliver frames
//! stamped with it, so a frame stamped at the limit waits while a
//! lower-indexed live source sits there, and the clock a
//! [`SetEvent::Batch`] reports stays below every frame it holds back.
//! Where reads end then changes nothing: the released frames, and
//! where ticks fall among them, are a pure function of the sources'
//! contents, so a deterministic set of sources yields a
//! byte-deterministic event stream. Capture anomalies are the
//! exception: a source reports them when it reads the damaged record,
//! so the tick that first counts them depends on the read-ahead.
//!
//! # Buffering bound
//!
//! A live source is read again only once the merge has released every
//! frame of its previous read, and a follow source reads at most
//! 256 KiB of capture (plus the record that crosses the line) per
//! read. However far the sources' clocks drift apart, the set holds at
//! most one read per source. A source whose frames wait on the merge is
//! neither stale nor idle: the stale valve and a follow source's idle
//! budget restart on every turn it waits.
//!
//! A live feed that goes silent would stall that minimum forever;
//! [`SourceSetBuilder::stale_after`] bounds the damage by excluding a
//! source from the watermark minimum after that long (wall clock)
//! without progress. Leave it unset for deterministic offline runs.
//!
//! # Failure isolation and resurrection
//!
//! A source whose `poll` errors is classified by
//! [`PacketError::is_transient`](tdat_packet::PacketError::is_transient).
//! A *fatal* error (corrupt bytes no reopen can fix) marks the source
//! failed and surfaces once as [`SetEvent::SourceFailed`]; the set
//! keeps draining its healthy siblings. A *transient* error (I/O
//! hiccup, capture rotation) on a spec-built source instead starts a
//! deterministic exponential-backoff retry loop: the set emits
//! [`SetEvent::SourceDown`] once, asks the source to
//! [`reopen`](PacketSource::reopen) itself after each backoff delay,
//! and on success emits [`SetEvent::SourceUp`] and resumes. A follow
//! source resumes at its committed byte offset; a rotated or
//! truncated capture is read from its start on the same clock. A
//! simulator goes on from where it stopped. So the set neither
//! re-reads nor skips anything. A bounded retry budget
//! ([`SourceSetBuilder::retry`]) converts a source that will not come
//! back into a terminal [`SetEvent::SourceFailed`]. Sources added via
//! [`SourceSetBuilder::custom`] are not reopened, so every error is
//! terminal for them.
//!
//! The set only reports [`SetEvent::Finished`] when every source is
//! done (or failed) and every buffered frame was released; a source
//! waiting out a backoff holds the set at [`SetEvent::Pending`]
//! instead.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdat_packet::{CaptureAnomaly, PacketError, TcpFrame};
use tdat_tcpsim::scenario::{validate_scenario_spec, ScenarioOptions};
use tdat_timeset::faultpoint::FaultPlan;
use tdat_timeset::Micros;
use tdat_trace::ConnKey;

use crate::source::{AttributedAnomaly, FollowSource, PacketSource, SimSource, SourceEvent};

/// Identifies one source within a [`SourceSet`] — and the per-source
/// scope a [`Monitor`](crate::Monitor) opens for it. A dense 0-based
/// index, stable for the lifetime of the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub(crate) u32);

impl SourceId {
    /// The dense 0-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Declarative description of one packet source — the builder-facing
/// half of the source-set API. A spec validates cheaply at
/// construction and opens into a boxed [`PacketSource`] when the set
/// is built.
#[derive(Debug, Clone)]
pub enum SourceSpec {
    /// Tail a (possibly still growing) pcap file via the lossy
    /// follower.
    Follow {
        /// The capture file.
        path: PathBuf,
        /// Finish after this long (wall clock) without a new record;
        /// `None` follows forever. The idle clock starts at the first
        /// consumed record unless `idle_from_open` is set.
        exit_idle: Option<Duration>,
        /// Arm the idle clock at open (static-corpus drain mode).
        idle_from_open: bool,
    },
    /// Drive a canonical simulator scenario as a live tap.
    Sim {
        /// The scenario spec (`name[:param]` grammar).
        scenario: String,
        /// Table size, seed, and RTT knobs.
        options: ScenarioOptions,
        /// Virtual-time step per poll.
        step: Micros,
        /// Virtual seconds per wall second; `None` runs accelerated.
        pace: Option<f64>,
    },
}

impl SourceSpec {
    /// A follow-mode source tailing `path` forever (see
    /// [`with_exit_idle`](Self::with_exit_idle)).
    pub fn follow(path: impl Into<PathBuf>) -> SourceSpec {
        SourceSpec::Follow {
            path: path.into(),
            exit_idle: None,
            idle_from_open: false,
        }
    }

    /// A simulator-tap source driving `scenario` in `step`-sized
    /// virtual-time increments. The spec is validated against the
    /// scenario grammar immediately — without building the simulation.
    ///
    /// # Errors
    ///
    /// Returns the scenario parser's message for an unknown or
    /// malformed spec.
    pub fn sim(
        scenario: &str,
        options: ScenarioOptions,
        step: Micros,
    ) -> Result<SourceSpec, String> {
        validate_scenario_spec(scenario)?;
        Ok(SourceSpec::Sim {
            scenario: scenario.to_string(),
            options,
            step,
            pace: None,
        })
    }

    /// Sets the follow-mode idle budget (no-op for sim sources).
    pub fn with_exit_idle(mut self, budget: Duration) -> SourceSpec {
        if let SourceSpec::Follow { exit_idle, .. } = &mut self {
            *exit_idle = Some(budget);
        }
        self
    }

    /// Arms the follow-mode idle clock at open instead of at the first
    /// record (no-op for sim sources) — static-corpus drain mode.
    pub fn with_idle_from_open(mut self) -> SourceSpec {
        if let SourceSpec::Follow { idle_from_open, .. } = &mut self {
            *idle_from_open = true;
        }
        self
    }

    /// Sets wall-clock pacing for a sim source (no-op for follow
    /// sources).
    pub fn with_pace(mut self, factor: f64) -> SourceSpec {
        if let SourceSpec::Sim { pace, .. } = &mut self {
            *pace = Some(factor);
        }
        self
    }

    /// The spec's default source name: the capture's file name for
    /// follow mode, `sim:<spec>` for simulator taps.
    pub fn label(&self) -> String {
        match self {
            SourceSpec::Follow { path, .. } => path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
            SourceSpec::Sim { scenario, .. } => format!("sim:{scenario}"),
        }
    }

    /// Opens the described source with a fault-injection plan attached
    /// (follow sources thread it into the pcap follower; sim sources
    /// have no I/O to fault).
    ///
    /// # Errors
    ///
    /// Follow specs fail when the file cannot be opened; sim specs fail
    /// on a spec the validator missed (parameter semantics checked only
    /// at build time).
    pub fn open_with(&self, faults: &FaultPlan) -> Result<Box<dyn PacketSource>, String> {
        match self {
            SourceSpec::Follow {
                path,
                exit_idle,
                idle_from_open,
            } => {
                let mut source =
                    FollowSource::tail(path).map_err(|e| format!("{}: {e}", path.display()))?;
                if let Some(budget) = exit_idle {
                    source = source.with_exit_idle(*budget);
                }
                if *idle_from_open {
                    source = source.idle_from_open();
                }
                if faults.is_enabled() {
                    source = source.with_faults(faults.clone());
                }
                Ok(Box::new(source))
            }
            SourceSpec::Sim {
                scenario,
                options,
                step,
                pace,
            } => {
                let mut source = SimSource::scenario(scenario, options, *step)?;
                if let Some(factor) = pace {
                    source = source.with_pace(*factor);
                }
                Ok(Box::new(source))
            }
        }
    }
}

/// A maximal run of consecutively released frames from one source, in
/// capture order. The frames of one [`SetEvent::Batch`] are globally
/// timestamp-ordered across its runs.
#[derive(Debug)]
pub struct SourceRun {
    /// The originating source.
    pub source: SourceId,
    /// The frames, in capture order.
    pub frames: Vec<TcpFrame>,
}

/// One poll's outcome for a [`SourceSet`].
#[derive(Debug)]
pub enum SetEvent {
    /// Frames released by the watermark merge (possibly none), plus
    /// the merged clock after them: trace time every live source is
    /// known to have passed. Drive the monitor to `now` after
    /// ingesting the runs.
    Batch {
        /// Released frames, grouped per source, globally
        /// timestamp-ordered.
        runs: Vec<SourceRun>,
        /// The merged source clock, when it advanced.
        now: Option<Micros>,
    },
    /// Nothing releasable right now; poll again after a short wait.
    Pending,
    /// A source hit a transient error and entered the backoff/reopen
    /// loop. Paired with a later [`SetEvent::SourceUp`] (recovery) or
    /// [`SetEvent::SourceFailed`] (retry budget exhausted). Reported
    /// once per outage.
    SourceDown {
        /// The source that went down.
        source: SourceId,
        /// The transient error that started the outage.
        error: String,
    },
    /// A downed source was reopened successfully and is live again.
    SourceUp {
        /// The resurrected source.
        source: SourceId,
        /// Reopen attempts the outage consumed (1 = first retry
        /// succeeded).
        attempts: u32,
    },
    /// A source died for good: a fatal error (unrecoverable capture
    /// damage), a transient error on a source that cannot be reopened,
    /// or a retry budget exhausted. The set keeps serving its
    /// siblings; the failed source is reported exactly once.
    SourceFailed {
        /// The failed source.
        source: SourceId,
        /// The terminal error.
        error: String,
    },
    /// Every source is exhausted (or failed) and every buffered frame
    /// was released.
    Finished,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum EntryState {
    Live,
    Done,
    Failed(String),
    /// Down with a transient error, waiting out the backoff delay
    /// before reopen attempt `attempt + 1`.
    Backoff {
        error: String,
        retry_at: Instant,
    },
}

struct SetEntry {
    name: Arc<str>,
    /// The fault points checked before each poll and each reopen,
    /// named once per entry.
    poll_point: String,
    open_point: String,
    source: Box<dyn PacketSource>,
    /// Whether a transient error reopens the source: spec-built sources
    /// do, custom ones do not.
    reopens: bool,
    /// What the merge has not released of the source's last batch; the
    /// source is read again only once this is empty.
    buffer: VecDeque<TcpFrame>,
    /// Latest trace timestamp this source is known to have passed.
    watermark: Option<Micros>,
    state: EntryState,
    /// Wall clock of the last productive poll, or of the last turn its
    /// buffer waited on the merge (for the stale valve).
    last_progress: Instant,
    /// Frames dropped because this source delivered them behind the
    /// already-released merge clock (a stale source that resumed).
    late_frames: u64,
    /// Reopen attempts consumed by the current unhealthy episode;
    /// reset when the source delivers a frame again.
    attempts: u32,
    /// Whether a [`SetEvent::SourceDown`] has been emitted without a
    /// matching [`SetEvent::SourceUp`] yet.
    down: bool,
}

impl fmt::Debug for SetEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetEntry")
            .field("name", &self.name)
            .field("buffered", &self.buffer.len())
            .field("watermark", &self.watermark)
            .field("state", &self.state)
            .field("late_frames", &self.late_frames)
            .finish()
    }
}

/// The deterministic exponential backoff schedule: `base << (attempt -
/// 1)`, capped at [`RETRY_CAP`]. No jitter — fault tests depend on the
/// schedule being a pure function of the attempt number.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << shift).min(RETRY_CAP)
}

/// Default reopen attempts per unhealthy episode.
const DEFAULT_RETRY_BUDGET: u32 = 3;

/// Default first backoff delay; doubles per attempt.
const DEFAULT_RETRY_BASE: Duration = Duration::from_millis(200);

/// Longest backoff delay the exponential schedule may reach.
const RETRY_CAP: Duration = Duration::from_secs(30);

/// How far the merge may release frames this poll.
enum ReleaseLimit {
    /// A live source has produced nothing yet: nothing may release.
    Blocked,
    /// Release frames stamped before `limit`, and frames stamped at it
    /// from sources indexed up to `tied`: the lowest-indexed live
    /// source whose watermark is `limit`, which may still deliver
    /// frames with that stamp.
    Upto { limit: Micros, tied: usize },
    /// No live constraint remains: release everything buffered.
    All,
}

/// A multiplexed set of packet sources with per-source identity; see
/// the module docs for the merge and failure-isolation rules.
#[derive(Debug)]
pub struct SourceSet {
    entries: Vec<SetEntry>,
    anomalies: Vec<(SourceId, AttributedAnomaly)>,
    /// Lifecycle notices (down/up/failed) not yet surfaced.
    pending_notices: VecDeque<SetEvent>,
    /// The merged clock last reported in a [`SetEvent::Batch`].
    last_now: Option<Micros>,
    /// Runs the last release made: the next one's first guess.
    runs_hint: usize,
    stale_after: Option<Duration>,
    /// Reopen attempts allowed per unhealthy episode; 0 disables
    /// resurrection entirely.
    retry_budget: u32,
    /// First backoff delay; doubles per attempt (capped).
    retry_base: Duration,
    faults: FaultPlan,
}

impl SourceSet {
    /// Starts an empty builder.
    pub fn builder() -> SourceSetBuilder {
        SourceSetBuilder {
            sources: Vec::new(),
            stale_after: None,
            retry_budget: DEFAULT_RETRY_BUDGET,
            retry_base: DEFAULT_RETRY_BASE,
            faults: FaultPlan::disabled(),
        }
    }

    /// Number of sources in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no sources.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The name of one source.
    pub fn name(&self, id: SourceId) -> Option<&Arc<str>> {
        self.entries.get(id.index()).map(|e| &e.name)
    }

    /// Every source name, by [`SourceId`] index.
    pub fn names(&self) -> Vec<Arc<str>> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Sources that failed so far, with their terminal errors.
    pub fn failures(&self) -> Vec<(SourceId, String)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match &e.state {
                EntryState::Failed(error) => Some((SourceId(i as u32), error.clone())),
                _ => None,
            })
            .collect()
    }

    /// Takes the capture anomalies collected since the last drain, each
    /// tagged with its originating source, in poll order.
    pub fn drain_anomalies(&mut self) -> Vec<(SourceId, AttributedAnomaly)> {
        std::mem::take(&mut self.anomalies)
    }

    /// Frames each source delivered *behind* the already-released merge
    /// clock (dropped, with a [`CaptureAnomaly::TimestampRegression`]
    /// attributed to the source), by [`SourceId`] index. Only a source
    /// excluded by the stale valve that later resumes can produce
    /// these.
    pub fn late_frames(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.late_frames).collect()
    }

    /// Reads every live source whose last batch the merge has wholly
    /// released (a source with frames still buffered waits, and its
    /// stale and idle clocks with it), retries downed sources whose
    /// backoff has elapsed, and releases the frames the watermark
    /// merge allows. Never fails as a whole: per-source errors surface
    /// as lifecycle notices ([`SetEvent::SourceDown`] /
    /// [`SetEvent::SourceUp`] / [`SetEvent::SourceFailed`]) and the
    /// set keeps going.
    pub fn poll(&mut self) -> SetEvent {
        if let Some(notice) = self.pending_notices.pop_front() {
            return notice;
        }

        self.poll_sources();
        self.retry_backoffs();

        if let Some(notice) = self.pending_notices.pop_front() {
            return notice;
        }

        match self.release_limit() {
            ReleaseLimit::Blocked => SetEvent::Pending,
            ReleaseLimit::Upto { limit, tied } => {
                let runs = self.drain_releasable(Some((limit, tied)));
                // A frame held at the limit keeps the clock below it,
                // so no tick fires ahead of the frame.
                let held = self.entries[tied + 1..]
                    .iter()
                    .any(|e| e.buffer.front().is_some_and(|f| f.timestamp == limit));
                let now = if held {
                    Micros(limit.0.saturating_sub(1))
                } else {
                    limit
                };
                if runs.is_empty() && Some(now) <= self.last_now {
                    return SetEvent::Pending;
                }
                self.last_now = Some(self.last_now.map_or(now, |n| n.max(now)));
                SetEvent::Batch {
                    runs,
                    now: Some(now),
                }
            }
            ReleaseLimit::All => {
                let runs = self.drain_releasable(None);
                let end = self.entries.iter().filter_map(|e| e.watermark).max();
                let advanced = match (end, self.last_now) {
                    (Some(e), Some(n)) => e > n,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if runs.is_empty() && !advanced {
                    // A downed source waiting out its backoff is not
                    // finished: it may yet resurrect and produce.
                    if self
                        .entries
                        .iter()
                        .any(|e| matches!(e.state, EntryState::Backoff { .. }))
                    {
                        return SetEvent::Pending;
                    }
                    return SetEvent::Finished;
                }
                if let Some(e) = end {
                    self.last_now = Some(self.last_now.map_or(e, |n| n.max(e)));
                }
                SetEvent::Batch { runs, now: end }
            }
        }
    }

    /// One poll pass over the live sources whose buffers the merge has
    /// emptied, routing errors through the transient/fatal classifier.
    fn poll_sources(&mut self) {
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if entry.state != EntryState::Live {
                continue;
            }
            if !entry.buffer.is_empty() {
                // Waiting on the merge is neither staleness nor
                // idleness: both clocks restart.
                entry.last_progress = Instant::now();
                entry.source.held();
                continue;
            }
            let id = SourceId(i as u32);
            let at = entry.watermark.or(self.last_now).unwrap_or(Micros::ZERO);
            let polled = if self.faults.should_fail_at(&entry.poll_point, at) {
                Err(PacketError::Io(std::io::Error::other(format!(
                    "injected fault: {}",
                    entry.poll_point
                ))))
            } else {
                entry.source.poll()
            };
            let anomalies = entry.source.drain_anomalies();
            self.anomalies
                .extend(anomalies.into_iter().map(|a| (id, a)));
            match polled {
                Ok(SourceEvent::Batch { frames, now }) => {
                    entry.last_progress = Instant::now();
                    let last = frames.iter().map(|f| f.timestamp).max();
                    if let Some(mark) = last.max(now) {
                        entry.watermark = Some(entry.watermark.map_or(mark, |w| w.max(mark)));
                    }
                    if !frames.is_empty() {
                        // Real progress closes the unhealthy episode:
                        // the next outage gets a fresh retry budget.
                        entry.attempts = 0;
                    }
                    // The buffer is empty: the batch becomes it, without
                    // a copy.
                    entry.buffer = VecDeque::from(frames);
                }
                Ok(SourceEvent::Pending) => {}
                Ok(SourceEvent::Finished) => entry.state = EntryState::Done,
                Err(e) => {
                    let error = e.to_string();
                    if e.is_transient() && entry.reopens && self.retry_budget > 0 {
                        entry.attempts += 1;
                        if entry.attempts > self.retry_budget {
                            Self::fail_entry(
                                &mut self.pending_notices,
                                entry,
                                id,
                                format!(
                                    "gave up after {} reopen attempts: {error}",
                                    self.retry_budget
                                ),
                            );
                        } else {
                            let delay = backoff_delay(self.retry_base, entry.attempts);
                            entry.state = EntryState::Backoff {
                                error: error.clone(),
                                retry_at: Instant::now() + delay,
                            };
                            if !entry.down {
                                entry.down = true;
                                self.pending_notices
                                    .push_back(SetEvent::SourceDown { source: id, error });
                            }
                        }
                    } else {
                        Self::fail_entry(&mut self.pending_notices, entry, id, error);
                    }
                }
            }
        }
    }

    /// Marks an entry terminally failed and queues the notice.
    fn fail_entry(
        notices: &mut VecDeque<SetEvent>,
        entry: &mut SetEntry,
        id: SourceId,
        error: String,
    ) {
        entry.state = EntryState::Failed(error.clone());
        notices.push_back(SetEvent::SourceFailed { source: id, error });
    }

    /// Attempts to reopen every downed source whose backoff elapsed.
    fn retry_backoffs(&mut self) {
        for (i, entry) in self.entries.iter_mut().enumerate() {
            let EntryState::Backoff { retry_at, .. } = &entry.state else {
                continue;
            };
            if Instant::now() < *retry_at {
                continue;
            }
            let id = SourceId(i as u32);
            let reopened = if self.faults.should_fail(&entry.open_point) {
                Err(format!("injected fault: {}", entry.open_point))
            } else {
                entry.source.reopen()
            };
            match reopened {
                Ok(()) => {
                    entry.state = EntryState::Live;
                    entry.last_progress = Instant::now();
                    entry.down = false;
                    self.pending_notices.push_back(SetEvent::SourceUp {
                        source: id,
                        attempts: entry.attempts,
                    });
                }
                Err(error) => {
                    entry.attempts += 1;
                    if entry.attempts > self.retry_budget {
                        Self::fail_entry(
                            &mut self.pending_notices,
                            entry,
                            id,
                            format!(
                                "gave up after {} reopen attempts: {error}",
                                self.retry_budget
                            ),
                        );
                    } else {
                        let delay = backoff_delay(self.retry_base, entry.attempts);
                        entry.state = EntryState::Backoff {
                            error,
                            retry_at: Instant::now() + delay,
                        };
                    }
                }
            }
        }
    }

    /// The watermark rule: the minimum over live (non-stale) sources,
    /// and the first of them to sit at it.
    fn release_limit(&self) -> ReleaseLimit {
        let mut min: Option<(Micros, usize)> = None;
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.state != EntryState::Live {
                continue;
            }
            if let Some(valve) = self.stale_after {
                if entry.last_progress.elapsed() >= valve {
                    continue;
                }
            }
            match entry.watermark {
                Some(w) if min.is_none_or(|(m, _)| w < m) => min = Some((w, i)),
                Some(_) => {}
                None => return ReleaseLimit::Blocked,
            }
        }
        match min {
            Some((limit, tied)) => ReleaseLimit::Upto { limit, tied },
            None => ReleaseLimit::All,
        }
    }

    /// K-way merge of the buffered frames up to `limit` (`None` drains
    /// everything; see [`ReleaseLimit::Upto`] for frames stamped at the
    /// limit): globally timestamp-ordered, ties to the lowest source
    /// index, FIFO within a source.
    ///
    /// A frame *behind* the already-released merge clock — possible
    /// only from a source the stale valve excluded that later resumed —
    /// would reorder the released stream; it is dropped here with a
    /// [`CaptureAnomaly::TimestampRegression`] attributed to its source
    /// and connection, and counted in [`late_frames`](Self::late_frames).
    fn drain_releasable(&mut self, limit: Option<(Micros, usize)>) -> Vec<SourceRun> {
        let releasable = |key: (Micros, usize)| limit.is_none_or(|l| key <= l);
        let mut runs: Vec<SourceRun> = Vec::with_capacity(self.runs_hint);
        loop {
            // The lowest releasable front opens a run, which lasts while
            // its source's frames stay below every other front.
            let (mut first, mut second) = (None, None);
            for (i, entry) in self.entries.iter().enumerate() {
                let Some(frame) = entry.buffer.front() else {
                    continue;
                };
                let key = (frame.timestamp, i);
                if !releasable(key) {
                    continue;
                }
                if first.is_none_or(|f| key < f) {
                    second = first;
                    first = Some(key);
                } else if second.is_none_or(|s| key < s) {
                    second = Some(key);
                }
            }
            let Some((_, i)) = first else { break };
            let entry = &mut self.entries[i];
            let len = entry
                .buffer
                .iter()
                .take_while(|f| {
                    let key = (f.timestamp, i);
                    releasable(key) && second.is_none_or(|s| key < s)
                })
                .count();
            let mut frames = Vec::with_capacity(len);
            for frame in entry.buffer.drain(..len) {
                match self.last_now {
                    // The merge always takes the global minimum, so every
                    // late frame is caught here before anything newer.
                    Some(floor) if frame.timestamp < floor => {
                        entry.late_frames += 1;
                        self.anomalies.push((
                            SourceId(i as u32),
                            AttributedAnomaly {
                                key: Some(ConnKey::of(&frame)),
                                anomaly: CaptureAnomaly::TimestampRegression {
                                    previous: floor,
                                    observed: frame.timestamp,
                                },
                            },
                        ));
                    }
                    _ => frames.push(frame),
                }
            }
            match runs.last_mut() {
                _ if frames.is_empty() => {}
                // Only late frames stood between the two runs.
                Some(run) if run.source.index() == i => run.frames.append(&mut frames),
                _ => runs.push(SourceRun {
                    source: SourceId(i as u32),
                    frames,
                }),
            }
        }
        self.runs_hint = runs.len();
        runs
    }
}

enum PendingSource {
    Spec(SourceSpec),
    Custom(Box<dyn PacketSource>),
}

/// Builder for a [`SourceSet`]; created by [`SourceSet::builder`].
pub struct SourceSetBuilder {
    sources: Vec<(Option<String>, PendingSource)>,
    stale_after: Option<Duration>,
    retry_budget: u32,
    retry_base: Duration,
    faults: FaultPlan,
}

/// `base`, or, when `taken` already holds it, the first of `base#2`,
/// `base#3`, … that `taken` does not: how the sources of one event
/// stream keep distinct names, within a [`SourceSet`] and beside the
/// files a sweep wrote into the same stream.
pub fn unique_name(taken: &[String], base: &str) -> String {
    let mut unique = base.to_string();
    let mut serial = 1usize;
    while taken.contains(&unique) {
        serial += 1;
        unique = format!("{base}#{serial}");
    }
    unique
}

impl fmt::Debug for SourceSetBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceSetBuilder")
            .field("sources", &self.sources.len())
            .field("stale_after", &self.stale_after)
            .field("retry_budget", &self.retry_budget)
            .field("retry_base", &self.retry_base)
            .finish()
    }
}

impl SourceSetBuilder {
    /// Adds a source under its default label (see
    /// [`SourceSpec::label`]).
    pub fn source(mut self, spec: SourceSpec) -> SourceSetBuilder {
        self.sources.push((None, PendingSource::Spec(spec)));
        self
    }

    /// Adds a source under an explicit name.
    pub fn named(mut self, name: impl Into<String>, spec: SourceSpec) -> SourceSetBuilder {
        self.sources
            .push((Some(name.into()), PendingSource::Spec(spec)));
        self
    }

    /// Adds an already-open source under an explicit name — the
    /// injection point for custom [`PacketSource`] implementations.
    pub fn custom(
        mut self,
        name: impl Into<String>,
        source: Box<dyn PacketSource>,
    ) -> SourceSetBuilder {
        self.sources
            .push((Some(name.into()), PendingSource::Custom(source)));
        self
    }

    /// Excludes a live source from the watermark minimum after this
    /// long (wall clock) without progress, so one silent feed cannot
    /// stall its siblings' analysis forever. Leave unset for
    /// deterministic offline runs. The valve must be positive:
    /// [`build`](SourceSetBuilder::build) rejects a zero valve, which
    /// would mark *every* source permanently stale and break merge
    /// ordering entirely.
    pub fn stale_after(mut self, valve: Duration) -> SourceSetBuilder {
        self.stale_after = Some(valve);
        self
    }

    /// Configures source resurrection: up to `budget` reopen attempts
    /// per unhealthy episode, with a deterministic exponential backoff
    /// starting at `base` (doubling per attempt, capped at 30 s). A
    /// zero budget disables resurrection — every error is terminal, the
    /// pre-supervision behaviour. The default allows 3 attempts from a
    /// 200 ms base. A positive budget with a zero base is rejected by
    /// [`build`](SourceSetBuilder::build) (it would busy-spin reopens).
    pub fn retry(mut self, budget: u32, base: Duration) -> SourceSetBuilder {
        self.retry_budget = budget;
        self.retry_base = base;
        self
    }

    /// Attaches a fault-injection plan. The set checks
    /// `source.poll:<name>` before each poll (with the source's
    /// watermark as virtual time) and `source.open:<name>` before each
    /// resurrection attempt, and threads the plan into spec-built
    /// follow sources (`follow.read`, `follow.short_read`).
    pub fn faults(mut self, faults: FaultPlan) -> SourceSetBuilder {
        self.faults = faults;
        self
    }

    /// Opens every source and builds the set. Names are deduplicated
    /// by appending `#2`, `#3`, … to later collisions ([`unique_name`]).
    ///
    /// # Errors
    ///
    /// Fails on an empty set, a zero `stale_after` valve, an invalid
    /// retry policy, or when any source fails to open (configuration
    /// errors fail fast; runtime errors are isolated per source
    /// instead).
    pub fn build(self) -> Result<SourceSet, String> {
        if self.sources.is_empty() {
            return Err("a source set needs at least one source".to_string());
        }
        if self.stale_after == Some(Duration::ZERO) {
            return Err(
                "stale_after must be positive: a zero valve marks every source \
                 permanently stale and disables merge ordering"
                    .to_string(),
            );
        }
        if self.retry_budget > 0 && self.retry_base == Duration::ZERO {
            return Err(
                "retry base delay must be positive when the retry budget is: a zero \
                 base busy-spins reopen attempts"
                    .to_string(),
            );
        }
        let mut taken: Vec<String> = Vec::new();
        let mut entries = Vec::with_capacity(self.sources.len());
        for (name, pending) in self.sources {
            let base = match (&name, &pending) {
                (Some(n), _) => n.clone(),
                (None, PendingSource::Spec(spec)) => spec.label(),
                (None, PendingSource::Custom(_)) => "custom".to_string(),
            };
            let unique = unique_name(&taken, &base);
            taken.push(unique.clone());
            let (source, reopens) = match pending {
                PendingSource::Spec(spec) => {
                    let source = spec
                        .open_with(&self.faults)
                        .map_err(|e| format!("source {unique}: {e}"))?;
                    (source, true)
                }
                PendingSource::Custom(source) => (source, false),
            };
            entries.push(SetEntry {
                poll_point: format!("source.poll:{unique}"),
                open_point: format!("source.open:{unique}"),
                name: Arc::from(unique.as_str()),
                source,
                reopens,
                buffer: VecDeque::new(),
                watermark: None,
                state: EntryState::Live,
                last_progress: Instant::now(),
                late_frames: 0,
                attempts: 0,
                down: false,
            });
        }
        Ok(SourceSet {
            entries,
            anomalies: Vec::new(),
            pending_notices: VecDeque::new(),
            last_now: None,
            runs_hint: 0,
            stale_after: self.stale_after,
            retry_budget: self.retry_budget,
            retry_base: self.retry_base,
            faults: self.faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_packet::FrameBuilder;

    /// One scripted poll outcome.
    enum Step {
        Batch(Vec<TcpFrame>, Option<Micros>),
        Pending,
    }

    /// A scripted source: yields its steps one per poll, then
    /// finishes (or fails, when `fail` is set).
    struct Scripted {
        steps: VecDeque<Step>,
        fail: Option<String>,
    }

    impl Scripted {
        fn of(batches: Vec<(Vec<TcpFrame>, Option<Micros>)>) -> Scripted {
            Scripted::steps(
                batches
                    .into_iter()
                    .map(|(frames, now)| Step::Batch(frames, now))
                    .collect(),
            )
        }

        fn steps(steps: Vec<Step>) -> Scripted {
            Scripted {
                steps: steps.into(),
                fail: None,
            }
        }
    }

    impl PacketSource for Scripted {
        fn poll(&mut self) -> tdat_packet::Result<SourceEvent> {
            match self.steps.pop_front() {
                Some(Step::Batch(frames, now)) => Ok(SourceEvent::Batch { frames, now }),
                Some(Step::Pending) => Ok(SourceEvent::Pending),
                None => match self.fail.take() {
                    Some(detail) => Err(tdat_packet::PacketError::Malformed {
                        what: "scripted source",
                        detail,
                    }),
                    None => Ok(SourceEvent::Finished),
                },
            }
        }
    }

    fn frame(last_octet: u8, at_us: i64) -> TcpFrame {
        FrameBuilder::new(
            Ipv4Addr::new(10, 9, 0, last_octet),
            Ipv4Addr::new(10, 9, 255, 1),
        )
        .at(Micros(at_us))
        .ports(179, 40000)
        .seq(1)
        .payload(vec![0xaa; 8])
        .build()
    }

    fn stamps(set: &mut SourceSet) -> Vec<(u32, i64)> {
        let mut out = Vec::new();
        loop {
            match set.poll() {
                SetEvent::Batch { runs, .. } => {
                    for run in runs {
                        for f in run.frames {
                            out.push((run.source.0, f.timestamp.0));
                        }
                    }
                }
                SetEvent::Pending => panic!("scripted sources never go pending"),
                SetEvent::SourceFailed { .. } => {}
                SetEvent::SourceDown { .. } | SetEvent::SourceUp { .. } => {
                    panic!("custom sources are not resurrectable")
                }
                SetEvent::Finished => break,
            }
        }
        out
    }

    #[test]
    fn watermark_merge_interleaves_by_timestamp() {
        // Source 0 has frames at 10/30/50; source 1 at 20/40/60, each
        // delivered across two polls. The merge must interleave them
        // globally by timestamp regardless of poll arrival.
        let a = Scripted::of(vec![
            (vec![frame(1, 10), frame(1, 30)], None),
            (vec![frame(1, 50)], None),
        ]);
        let b = Scripted::of(vec![
            (vec![frame(2, 20)], None),
            (vec![frame(2, 40), frame(2, 60)], None),
        ]);
        let mut set = SourceSet::builder()
            .custom("a", Box::new(a))
            .custom("b", Box::new(b))
            .build()
            .expect("build");
        assert_eq!(
            stamps(&mut set),
            vec![(0, 10), (1, 20), (0, 30), (1, 40), (0, 50), (1, 60)]
        );
    }

    #[test]
    fn ties_release_the_lower_source_index_first() {
        let a = Scripted::of(vec![(vec![frame(1, 10)], None)]);
        let b = Scripted::of(vec![(vec![frame(2, 10)], None)]);
        let mut set = SourceSet::builder()
            .custom("x", Box::new(a))
            .custom("y", Box::new(b))
            .build()
            .expect("build");
        assert_eq!(stamps(&mut set), vec![(0, 10), (1, 10)]);
    }

    #[test]
    fn slow_source_holds_back_its_siblings_frames() {
        // Source 0 races ahead to ts 100; source 1's first batch only
        // reaches ts 5. Nothing past ts 5 may release on the first
        // poll.
        let a = Scripted::of(vec![(vec![frame(1, 1), frame(1, 100)], None)]);
        let b = Scripted::of(vec![(vec![frame(2, 5)], None), (vec![frame(2, 90)], None)]);
        let mut set = SourceSet::builder()
            .custom("fast", Box::new(a))
            .custom("slow", Box::new(b))
            .build()
            .expect("build");
        match set.poll() {
            SetEvent::Batch { runs, now } => {
                let released: Vec<i64> = runs
                    .iter()
                    .flat_map(|r| r.frames.iter().map(|f| f.timestamp.0))
                    .collect();
                assert_eq!(released, vec![1, 5], "ts 100 held behind the slow source");
                assert_eq!(now, Some(Micros(5)));
            }
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn one_failed_source_never_kills_the_set() {
        let mut a = Scripted::of(vec![(vec![frame(1, 10)], None)]);
        a.fail = Some("simulated I/O error".to_string());
        let b = Scripted::of(vec![(vec![frame(2, 20)], None), (vec![frame(2, 30)], None)]);
        let mut set = SourceSet::builder()
            .custom("dying", Box::new(a))
            .custom("healthy", Box::new(b))
            .build()
            .expect("build");
        let mut released = Vec::new();
        let mut failures = Vec::new();
        loop {
            match set.poll() {
                SetEvent::Batch { runs, .. } => {
                    released.extend(
                        runs.iter()
                            .flat_map(|r| r.frames.iter().map(|f| f.timestamp.0)),
                    );
                }
                SetEvent::SourceFailed { source, error } => failures.push((source, error)),
                SetEvent::Pending => panic!("scripted sources never go pending"),
                SetEvent::SourceDown { .. } | SetEvent::SourceUp { .. } => {
                    panic!("custom sources are not resurrectable")
                }
                SetEvent::Finished => break,
            }
        }
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, SourceId(0));
        assert!(failures[0].1.contains("simulated I/O error"));
        assert_eq!(released, vec![10, 20, 30], "healthy source fully drained");
        assert_eq!(set.failures().len(), 1);
    }

    #[test]
    fn stale_resumed_source_cannot_inject_frames_behind_the_released_clock() {
        // "lead" keeps producing while "lag" goes silent; the stale
        // valve excludes lag from the watermark and the merge clock
        // runs ahead to ts 100. When lag resumes, its buffered ts-20
        // frame is *behind* the released clock: it must be dropped with
        // an attributed anomaly, never released out of order.
        let lead = Scripted::steps(vec![
            Step::Batch(vec![frame(1, 10), frame(1, 100)], None),
            Step::Batch(vec![], Some(Micros(100))),
        ]);
        let lag = Scripted::steps(vec![
            Step::Batch(vec![frame(2, 5)], None),
            Step::Pending,
            Step::Batch(vec![frame(2, 20), frame(2, 150)], None),
        ]);
        let mut set = SourceSet::builder()
            .custom("lead", Box::new(lead))
            .custom("lag", Box::new(lag))
            .build()
            .expect("build");
        set.stale_after = Some(Duration::from_millis(2));

        let mut released: Vec<(u32, i64)> = Vec::new();
        let mut nows: Vec<i64> = Vec::new();
        loop {
            match set.poll() {
                SetEvent::Batch { runs, now } => {
                    for run in runs {
                        for f in run.frames {
                            released.push((run.source.0, f.timestamp.0));
                        }
                    }
                    if let Some(now) = now {
                        nows.push(now.0);
                    }
                }
                SetEvent::Pending => {}
                SetEvent::SourceFailed { source, error } => {
                    panic!("unexpected failure of {source}: {error}")
                }
                SetEvent::SourceDown { .. } | SetEvent::SourceUp { .. } => {
                    panic!("custom sources are not resurrectable")
                }
                SetEvent::Finished => break,
            }
            // Let the valve see lag as stale while lead stays fresh
            // (lead's next poll refreshes its progress clock).
            std::thread::sleep(Duration::from_millis(4));
        }

        assert_eq!(
            released,
            vec![(1, 5), (0, 10), (0, 100), (1, 150)],
            "ts 20 must not release behind the ts-100 clock"
        );
        assert!(
            nows.windows(2).all(|w| w[0] <= w[1]),
            "clock regressed: {nows:?}"
        );
        assert_eq!(set.late_frames(), vec![0, 1]);
        let anomalies = set.drain_anomalies();
        let late: Vec<_> = anomalies
            .iter()
            .filter(|(id, a)| {
                *id == SourceId(1)
                    && matches!(
                        a.anomaly,
                        CaptureAnomaly::TimestampRegression {
                            previous: Micros(100),
                            observed: Micros(20),
                        }
                    )
            })
            .collect();
        assert_eq!(
            late.len(),
            1,
            "one attributed late-frame anomaly: {anomalies:?}"
        );
        assert!(
            late[0].1.key.is_some(),
            "late frame keeps its connection key"
        );
    }

    /// Polls `set` `n` times, keeping the stamps it released.
    fn poll_n(set: &mut SourceSet, n: usize, pause: Duration) -> Vec<(u32, i64)> {
        let mut out = Vec::new();
        for _ in 0..n {
            if let SetEvent::Batch { runs, .. } = set.poll() {
                for run in runs {
                    out.extend(run.frames.iter().map(|f| (run.source.0, f.timestamp.0)));
                }
            }
            std::thread::sleep(pause);
        }
        out
    }

    #[test]
    fn a_source_ahead_of_a_pending_sibling_holds_one_read() {
        // "lag" reports one early frame and then stays pending, so
        // nothing of "ahead" can release; "ahead" has 50 reads of 10
        // frames to give. It is read once and then waits for the merge,
        // however many times the set is polled.
        let ahead = Scripted::of(
            (0..50)
                .map(|k| ((0..10).map(|j| frame(1, 100 + 10 * k + j)).collect(), None))
                .collect(),
        );
        let lag = Scripted::steps(
            std::iter::once(Step::Batch(vec![frame(2, 1)], None))
                .chain(std::iter::repeat_with(|| Step::Pending).take(60))
                .collect(),
        );
        let mut set = SourceSet::builder()
            .custom("ahead", Box::new(ahead))
            .custom("lag", Box::new(lag))
            .build()
            .expect("build");
        assert_eq!(poll_n(&mut set, 50, Duration::ZERO), vec![(1, 1)]);
        let buffered: Vec<i64> = set.entries[0]
            .buffer
            .iter()
            .map(|f| f.timestamp.0)
            .collect();
        assert_eq!(
            buffered,
            (100..110).collect::<Vec<_>>(),
            "the first read is held"
        );
    }

    #[test]
    fn a_source_waiting_on_the_merge_does_not_go_stale() {
        // "held" reads ts 1000 and waits while "steady" creeps from 1
        // to 40, a read per poll, for far longer than the stale valve.
        // Were the wait counted as silence, "steady"'s jump to 2000
        // would release past "held" and drop its next frame, ts 1500,
        // as late.
        let held = Scripted::of(vec![
            (vec![frame(1, 1000)], None),
            (vec![frame(1, 1500)], None),
        ]);
        let steady = Scripted::of(
            (1..=40)
                .map(|t| (vec![frame(2, t)], None))
                .chain(std::iter::once((vec![frame(2, 2000)], None)))
                .collect(),
        );
        let mut set = SourceSet::builder()
            .custom("held", Box::new(held))
            .custom("steady", Box::new(steady))
            .stale_after(Duration::from_millis(20))
            .build()
            .expect("build");
        let released = poll_n(&mut set, 50, Duration::from_millis(4));
        assert_eq!(set.late_frames(), vec![0, 0]);
        assert_eq!(
            &released[40..],
            &[(0, 1000), (0, 1500), (1, 2000)],
            "released: {released:?}"
        );
    }

    #[test]
    fn a_source_waiting_on_the_merge_does_not_idle_out() {
        // A follow source with a 100 ms idle budget reads its whole
        // capture at once, then waits 300 ms behind a pending sibling
        // that sits just before its first stamp. Read again once the
        // merge takes its frames, it finds nothing new: that is not
        // 300 ms of idleness, so it stays live until the budget passes.
        let path =
            std::env::temp_dir().join(format!("tdat-set-held-idle-{}.pcap", std::process::id()));
        let capture: Vec<TcpFrame> = [0, 10_000, 20_000].map(|t| frame(1, t)).into();
        tdat_packet::write_pcap_file(&path, &capture).expect("scratch pcap");
        let lag = Scripted::steps(
            std::iter::once(Step::Batch(vec![frame(2, -1)], None))
                .chain(std::iter::repeat_with(|| Step::Pending).take(60))
                .chain(std::iter::once(Step::Batch(vec![frame(2, 30_000)], None)))
                .chain(std::iter::repeat_with(|| Step::Pending).take(100))
                .collect(),
        );
        let mut set = SourceSet::builder()
            .custom("lag", Box::new(lag))
            .named(
                "capture",
                SourceSpec::follow(&path).with_exit_idle(Duration::from_millis(100)),
            )
            .build()
            .expect("build");
        let waited = poll_n(&mut set, 61, Duration::from_millis(5));
        assert_eq!(waited, vec![(0, -1)], "the capture waits on lag's stamp");
        assert_eq!(set.entries[1].buffer.len(), 3);
        let released = poll_n(&mut set, 1, Duration::ZERO);
        assert_eq!(released, vec![(1, 0), (1, 10_000), (1, 20_000)]);
        poll_n(&mut set, 1, Duration::ZERO);
        let state = set.entries[1].state.clone();
        std::thread::sleep(Duration::from_millis(150));
        poll_n(&mut set, 1, Duration::ZERO);
        let after = set.entries[1].state.clone();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            state,
            EntryState::Live,
            "read again, the capture is not idle yet"
        );
        assert_eq!(after, EntryState::Done, "the idle budget still ends it");
    }

    #[test]
    fn duplicate_labels_are_deduplicated() {
        let a = Scripted::of(vec![]);
        let b = Scripted::of(vec![]);
        let set = SourceSet::builder()
            .custom("tap", Box::new(a))
            .custom("tap", Box::new(b))
            .build()
            .expect("build");
        let names: Vec<String> = set.names().iter().map(|n| n.to_string()).collect();
        assert_eq!(names, vec!["tap", "tap#2"]);
    }

    #[test]
    fn empty_set_is_rejected() {
        assert!(SourceSet::builder().build().is_err());
    }

    #[test]
    fn zero_stale_valve_is_rejected() {
        let err = SourceSet::builder()
            .custom("a", Box::new(Scripted::of(vec![])))
            .stale_after(Duration::ZERO)
            .build()
            .expect_err("zero valve must be rejected");
        assert!(err.contains("stale_after"), "unhelpful error: {err}");
        assert!(SourceSet::builder()
            .custom("a", Box::new(Scripted::of(vec![])))
            .stale_after(Duration::from_millis(1))
            .build()
            .is_ok());
    }

    #[test]
    fn sim_spec_validates_eagerly() {
        let err = SourceSpec::sim("nosuch", ScenarioOptions::default(), Micros::from_secs(1))
            .expect_err("unknown scenario");
        assert!(err.contains("nosuch"));
        assert!(SourceSpec::sim(
            "timer:250",
            ScenarioOptions::default(),
            Micros::from_secs(1)
        )
        .is_ok());
    }

    #[test]
    fn follow_spec_label_uses_the_file_name() {
        let spec = SourceSpec::follow("/var/captures/collector-7.pcap");
        assert_eq!(spec.label(), "collector-7.pcap");
        assert_eq!(
            SourceSpec::sim("clean", ScenarioOptions::default(), Micros::from_secs(1))
                .expect("valid")
                .label(),
            "sim:clean"
        );
    }

    /// The released order against read boundaries: scripted sources
    /// with many equal stamps, each read in pieces of 1 frame up to all
    /// of them with pending turns between, against the same sources
    /// read whole.
    mod rebatch_props {
        use super::*;
        use proptest::prelude::*;

        /// One source: the steps between its stamps (mostly 0, so that
        /// stamps tie), its read sizes (cycled, from 1 frame to more than
        /// it has) and whether a pending turn comes before each read.
        fn source() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, Vec<bool>)> {
            (
                prop::collection::vec((0i64..5).prop_map(|x| (x - 2).max(0)), 1..16),
                prop::collection::vec(1usize..17, 1..6),
                prop::collection::vec(any::<bool>(), 1..6),
            )
        }

        /// Source `s`'s frames at `stamps`, numbered by their place in
        /// the source (the sequence number).
        fn frames(s: usize, stamps: &[i64]) -> Vec<TcpFrame> {
            let mut t = 100;
            stamps
                .iter()
                .enumerate()
                .map(|(k, step)| {
                    t += step;
                    let mut f = frame(s as u8 + 1, t);
                    f.tcp.seq = k as u32;
                    f
                })
                .collect()
        }

        /// Drains `set`, checking that no buffered frame sits at or
        /// before a reported clock, and returns the released
        /// `(source, stamp, number)` in order.
        fn release(mut set: SourceSet) -> Vec<(u32, i64, u32)> {
            let mut out = Vec::new();
            loop {
                match set.poll() {
                    SetEvent::Batch { runs, now } => {
                        for run in runs {
                            out.extend(
                                run.frames
                                    .iter()
                                    .map(|f| (run.source.0, f.timestamp.0, f.tcp.seq)),
                            );
                        }
                        let now = now.expect("a bounded release reports its clock");
                        for entry in &set.entries {
                            if let Some(f) = entry.buffer.iter().find(|f| f.timestamp <= now) {
                                panic!("clock {now:?} passed held frame {:?}", f.timestamp);
                            }
                        }
                    }
                    SetEvent::Pending => {}
                    SetEvent::Finished => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            out
        }

        proptest! {
            #[test]
            fn released_order_ignores_read_boundaries(
                sources in prop::collection::vec(source(), 1..4),
            ) {
                let mut whole = SourceSet::builder();
                let mut pieces = SourceSet::builder();
                for (s, (stamps, sizes, pauses)) in sources.iter().enumerate() {
                    let mut rest = frames(s, stamps);
                    let once = Scripted::of(vec![(rest.clone(), None)]);
                    whole = whole.custom(s.to_string(), Box::new(once));
                    let mut steps = Vec::new();
                    for k in 0.. {
                        if rest.is_empty() {
                            break;
                        }
                        if pauses[k % pauses.len()] {
                            steps.push(Step::Pending);
                        }
                        let tail = rest.split_off(sizes[k % sizes.len()].min(rest.len()));
                        steps.push(Step::Batch(std::mem::replace(&mut rest, tail), None));
                    }
                    pieces = pieces.custom(s.to_string(), Box::new(Scripted::steps(steps)));
                }
                let whole = release(whole.build().expect("build"));
                let mut sorted = whole.clone();
                sorted.sort_by_key(|&(s, t, k)| (t, s, k));
                prop_assert_eq!(&whole, &sorted);
                prop_assert_eq!(release(pieces.build().expect("build")), whole);
            }
        }
    }
}
