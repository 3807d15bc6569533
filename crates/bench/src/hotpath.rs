//! Reusable hot-path workloads shared by the criterion benches
//! (`benches/hot_path.rs`) and the machine-readable `bench-json`
//! binary, so both measure exactly the same code paths:
//!
//! - **decode** — pcap bytes to frames, zero-copy ([`decode_views`])
//!   vs. allocating ([`decode_owned`]), plus the mmap ingest layers:
//!   per-frame views straight out of a mapping ([`mmap_read`]) and
//!   block decode with slot reuse ([`block_decode`]);
//! - **sharded batch** — the partitioned single-capture analyzer at a
//!   given shard count ([`batch_sharded`]), against the same capture
//!   the serial end-to-end workload reads;
//! - **analysis stages** — series generation and factor classification
//!   in isolation, with a reused scratch pool ([`StageInputs`]);
//! - **end to end** — the batch analyzer over a multi-connection
//!   capture ([`batch_analyze`]), the workload the PR's ≥1.5×
//!   acceptance criterion is stated against;
//! - **monitor ticks** — a live [`Monitor`] driven through a fixed
//!   tick schedule with a configurable idle-connection population
//!   ([`MonitorScenario`]), demonstrating that steady-state tick cost
//!   tracks new traffic, not open-connection count.

use std::net::Ipv4Addr;
use std::path::Path;

use tdat::{Analyzer, AnalyzerConfig, DelayVector, SeriesSet, StreamAnalyzer, StreamOptions};
use tdat_monitor::{Monitor, MonitorConfig, TrackerConfig};
use tdat_packet::{
    FrameBlock, FrameBuilder, FrameLike, MmapReader, PcapReader, PcapWriter, TcpFlags, TcpFrame,
};
use tdat_timeset::{Micros, Span, SpanScratch};
use tdat_trace::{extract_connections, label_segments, LabelConfig, SegLabel};

use crate::{generate_transfer, Dataset, Scenario};

/// A multi-connection capture: four independent clean transfers
/// interleaved by timestamp, serialized as one in-memory pcap stream.
/// Returns the pcap bytes and the wire byte count (for throughput).
pub fn interleaved_pcap(per_conn_routes: usize) -> (Vec<u8>, u64) {
    let mut frames: Vec<TcpFrame> = Vec::new();
    for i in 0..4 {
        frames.extend(
            generate_transfer(
                Dataset::IspAQuagga,
                i,
                Scenario::Clean,
                per_conn_routes,
                9_000 + i as u64,
            )
            .frames,
        );
    }
    frames.sort_by_key(|f| f.timestamp);
    let wire_bytes: u64 = frames.iter().map(|f| f.to_wire().len() as u64 + 16).sum();
    let mut pcap = Vec::new();
    {
        let mut w = PcapWriter::new(&mut pcap).expect("in-memory pcap");
        for f in &frames {
            w.write_frame(f).expect("in-memory pcap");
        }
    }
    (pcap, wire_bytes)
}

/// Zero-copy decode: walks the capture with [`PcapReader::next_view`],
/// borrowing each frame from the reader's record buffer, and folds the
/// payload bytes so the work cannot be optimized away.
pub fn decode_views(pcap: &[u8]) -> u64 {
    let mut reader = PcapReader::new(pcap).expect("valid pcap header");
    let mut sum = 0u64;
    while let Some(view) = reader.next_view().expect("valid pcap record") {
        sum += view.payload.len() as u64;
    }
    sum
}

/// Allocating decode: materializes every frame as an owned
/// [`TcpFrame`] (`read_all`), then folds the same payload byte count.
pub fn decode_owned(pcap: &[u8]) -> u64 {
    PcapReader::new(pcap)
        .expect("valid pcap header")
        .read_all()
        .expect("valid pcap records")
        .iter()
        .map(|f| f.payload.len() as u64)
        .sum()
}

/// Mmap ingest, per-frame: maps the capture file and walks it with
/// [`MmapReader::next_view`], borrowing each frame straight out of the
/// mapping; folds the payload bytes so the work cannot be optimized
/// away.
pub fn mmap_read(path: &Path) -> u64 {
    let mut reader = MmapReader::open(path).expect("valid pcap header");
    let mut sum = 0u64;
    while let Some(view) = reader.next_view().expect("valid pcap record") {
        sum += view.payload.len() as u64;
    }
    sum
}

/// Mmap ingest, block decode: maps the capture file and drains it
/// through [`MmapReader::next_views_into`] with one reused
/// [`FrameBlock`], so per-frame header state (including TCP option
/// storage) amortizes across the run.
pub fn block_decode(path: &Path) -> u64 {
    let mut reader = MmapReader::open(path).expect("valid pcap header");
    let mut block = FrameBlock::new();
    let mut sum = 0u64;
    loop {
        let views = reader.next_views_into(&mut block).expect("valid records");
        if views.is_empty() {
            return sum;
        }
        for frame in &views {
            sum += frame.payload().len() as u64;
        }
    }
}

/// The batch engine end to end over a capture file, at a lane count
/// (0 = the serial pass; lanes also read via mmap + block decode).
/// Returns the connection count — by construction identical at every
/// count.
pub fn batch_sharded(path: &Path, shards: usize) -> usize {
    let engine = StreamAnalyzer::with_options(
        AnalyzerConfig::default(),
        StreamOptions {
            tracker: tdat::TrackerConfig::batch(),
            shards,
            ..Default::default()
        },
    );
    engine
        .analyze_pcap(path)
        .expect("valid capture analyzes")
        .len()
}

/// Batch pipeline end to end: decode the capture into owned frames and
/// run the full per-connection analysis. Returns the connection count.
pub fn batch_analyze(analyzer: &Analyzer, pcap: &[u8]) -> usize {
    let frames = PcapReader::new(pcap)
        .expect("valid pcap header")
        .read_all()
        .expect("valid pcap records");
    analyzer.analyze_frames(&frames).len()
}

/// Pre-extracted inputs for benchmarking the analysis stages in
/// isolation: one labeled, ACK-shifted connection trace plus the
/// series set derived from it.
pub struct StageInputs {
    trace: tdat::preprocess::ShiftedTrace,
    labels: Vec<SegLabel>,
    period: Span,
    mss: u32,
    max_adv_window: u32,
    rtt: Option<Micros>,
    config: AnalyzerConfig,
    series: SeriesSet,
}

impl StageInputs {
    /// Extracts and preprocesses the stage inputs from a mid-size
    /// transfer with loss episodes (the interesting case for series
    /// generation cost).
    pub fn prepare() -> StageInputs {
        let frames = generate_transfer(
            Dataset::IspAQuagga,
            0,
            Scenario::DownstreamBurst { at: 0.3, len: 0.08 },
            20_000,
            4_242,
        )
        .frames;
        let mut conns = extract_connections(&frames);
        assert!(!conns.is_empty(), "corpus transfer yields one connection");
        let conn = conns.remove(0);
        let config = AnalyzerConfig::default();
        let labels = label_segments(&conn, &LabelConfig::default());
        let trace = tdat::preprocess::shift_acks(&conn);
        let period = trace.span();
        let mut inputs = StageInputs {
            trace,
            labels,
            period,
            mss: conn.profile.mss.unwrap_or(1448),
            max_adv_window: conn.profile.max_receiver_window,
            rtt: conn.profile.rtt,
            config,
            series: SeriesSet::default(),
        };
        let mut scratch = SpanScratch::new();
        inputs.series = inputs.series_only(&mut scratch);
        inputs
    }

    /// Series generation alone (extraction + interpretation +
    /// operation rules) with a caller-reused scratch pool.
    pub fn series_only(&self, scratch: &mut SpanScratch) -> SeriesSet {
        tdat::generate_series_with(
            &self.trace,
            &self.labels,
            self.period,
            self.mss,
            self.max_adv_window,
            self.rtt,
            &self.config,
            scratch,
        )
    }

    /// Factor classification alone (span algebra over the prepared
    /// series set) with a caller-reused scratch pool.
    pub fn factors_only(&self, scratch: &mut SpanScratch) -> DelayVector {
        tdat::delay_vector_with(&self.series, &self.config, scratch)
    }
}

/// A live-monitoring workload: one active table transfer plus `idle`
/// established-but-silent BGP sessions, driven through a fixed number
/// of analysis ticks. Comparing `idle = 0` against `idle = 500` is the
/// incremental-snapshot acceptance check — with caching, the extra
/// open connections must not dominate tick cost.
pub struct MonitorScenario {
    /// Frames up to and including the first tick boundary: every
    /// session's handshake plus the transfer's first interval. The
    /// first tick analyzes the whole population once — that is new
    /// traffic, not steady-state overhead.
    setup: Vec<TcpFrame>,
    /// The remaining frames, spanning [`MONITOR_TICKS`]` - 1` further
    /// ticks during which the idle sessions never become dirty again.
    steady: Vec<TcpFrame>,
    interval: Micros,
    end: Micros,
}

/// Ticks a [`MonitorScenario`] drives through its transfer.
pub const MONITOR_TICKS: i64 = 16;

impl MonitorScenario {
    /// Builds the frame schedule: a clean 8k-route transfer and `idle`
    /// handshake-only sessions on distinct endpoints, merged in
    /// timestamp order. The tick interval divides the transfer into
    /// [`MONITOR_TICKS`] analysis rounds.
    pub fn prepare(idle: usize) -> MonitorScenario {
        assert!(idle <= 40_000, "idle endpoint space is 200*200");
        let mut frames =
            generate_transfer(Dataset::IspAQuagga, 0, Scenario::Clean, 8_000, 31_337).frames;
        let end = frames.last().expect("non-empty transfer").timestamp;
        for i in 0..idle {
            let a = Ipv4Addr::new(10, (100 + i / 200) as u8, (i % 200) as u8, 9);
            let b = Ipv4Addr::new(172, 16, (i / 200) as u8, (i % 200) as u8);
            let sport = 40_000 + (i % 20_000) as u16;
            let t0 = Micros(10 + i as i64);
            frames.push(
                FrameBuilder::new(a, b)
                    .ports(sport, 179)
                    .at(t0)
                    .seq(0)
                    .flags(TcpFlags::SYN)
                    .build(),
            );
            frames.push(
                FrameBuilder::new(b, a)
                    .ports(179, sport)
                    .at(t0 + Micros(200))
                    .seq(0)
                    .ack_to(1)
                    .flags(TcpFlags::SYN | TcpFlags::ACK)
                    .build(),
            );
            frames.push(
                FrameBuilder::new(a, b)
                    .ports(sport, 179)
                    .at(t0 + Micros(400))
                    .seq(1)
                    .ack_to(1)
                    .flags(TcpFlags::ACK)
                    .build(),
            );
        }
        frames.sort_by_key(|f| f.timestamp);
        let interval = Micros((end.0 / MONITOR_TICKS).max(1));
        let split = frames.partition_point(|f| f.timestamp <= interval);
        let steady = frames.split_off(split);
        MonitorScenario {
            setup: frames,
            steady,
            interval,
            end,
        }
    }

    /// Ingests the setup phase into a fresh [`Monitor`] and runs the
    /// first tick, leaving every session analyzed once and cached.
    fn warmed(&self, recompute_all: bool) -> Monitor {
        let mut monitor = Monitor::new(MonitorConfig {
            interval: self.interval,
            recompute_all,
            ..MonitorConfig::default()
        });
        for f in &self.setup {
            monitor.ingest(f);
        }
        monitor.advance_to(self.interval);
        monitor
    }

    /// Drives a warmed monitor through the steady phase.
    fn drive(&self, monitor: &mut Monitor) -> usize {
        for f in &self.steady {
            monitor.ingest(f);
        }
        monitor.advance_to(self.end + self.interval);
        monitor.drain_events().len()
    }

    /// Runs the whole schedule through a fresh [`Monitor`] and returns
    /// the number of events it produced. `recompute_all` selects the
    /// validation mode that re-analyzes every open connection per tick.
    pub fn run(&self, recompute_all: bool) -> usize {
        let mut monitor = self.warmed(recompute_all);
        self.drive(&mut monitor)
    }

    /// Times the steady phase alone: setup and the first tick (the
    /// population's one-time analysis — new traffic by definition)
    /// happen outside the clock, so the result is the cost of
    /// [`MONITOR_TICKS`]` - 1` steady-state ticks. This is the number
    /// the "500 idle sessions within 2x of 1 session" criterion is
    /// stated against.
    pub fn run_steady(&self, recompute_all: bool) -> std::time::Duration {
        let mut monitor = self.warmed(recompute_all);
        let started = std::time::Instant::now();
        std::hint::black_box(self.drive(&mut monitor));
        started.elapsed()
    }
}

/// Ticks a [`FleetScenario`] drives through its steady phase.
pub const FLEET_TICKS: i64 = 8;

/// A fleet-scale monitoring workload for the sharded engine: thousands
/// of concurrent BGP sessions, each *actively* exchanging data in its
/// ticks — so every active session is dirty at every tick boundary and
/// the per-tick analysis is the dominant cost that sharding divides.
/// [`MonitorScenario`] measures the incremental-cache claim (idle
/// sessions are nearly free); this measures the opposite regime, where
/// nothing is idle and the engine must re-analyze `active` connections
/// per tick.
pub struct FleetScenario {
    /// Handshakes for every session, inside the first tick interval.
    setup: Vec<TcpFrame>,
    /// Data/ACK exchanges spanning [`FLEET_TICKS`]` - 1` further ticks:
    /// `active` sessions per tick, rotating through the population.
    steady: Vec<TcpFrame>,
    interval: Micros,
    end: Micros,
    sessions: usize,
}

impl FleetScenario {
    /// Builds the frame schedule: `sessions` handshakes on distinct
    /// endpoint pairs, then per tick a rotating window of `active`
    /// sessions each sending one MSS of data (plus the ACK). With
    /// `active == sessions` the whole fleet is dirty at every tick.
    pub fn prepare(sessions: usize, active: usize) -> FleetScenario {
        assert!(
            sessions > 0 && sessions < (1 << 24),
            "session space is 24-bit"
        );
        let active = active.min(sessions);
        let interval = Micros::from_secs(1);
        let endpoints = |i: usize| {
            let a = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
            let b = Ipv4Addr::new(172, 16, (i >> 8) as u8, i as u8);
            let sport = 40_000 + (i % 20_000) as u16;
            (a, b, sport)
        };
        let mut setup = Vec::with_capacity(sessions * 3);
        for i in 0..sessions {
            let (a, b, sport) = endpoints(i);
            let t0 = Micros(10 + (i as i64) * 5);
            setup.push(
                FrameBuilder::new(a, b)
                    .ports(179, sport)
                    .at(t0)
                    .seq(0)
                    .flags(TcpFlags::SYN)
                    .build(),
            );
            setup.push(
                FrameBuilder::new(b, a)
                    .ports(sport, 179)
                    .at(t0 + Micros(2))
                    .seq(0)
                    .ack_to(1)
                    .flags(TcpFlags::SYN | TcpFlags::ACK)
                    .build(),
            );
            setup.push(
                FrameBuilder::new(a, b)
                    .ports(179, sport)
                    .at(t0 + Micros(4))
                    .seq(1)
                    .ack_to(1)
                    .flags(TcpFlags::ACK)
                    .build(),
            );
        }
        let mut steady = Vec::with_capacity((FLEET_TICKS as usize - 1) * active * 2);
        let mut sent = vec![1u32; sessions];
        for tick in 1..FLEET_TICKS {
            for slot in 0..active {
                let i = (tick as usize * active + slot) % sessions;
                let (a, b, sport) = endpoints(i);
                let t = Micros(tick * interval.0 + 10 + (slot as i64) * 5);
                steady.push(
                    FrameBuilder::new(a, b)
                        .ports(179, sport)
                        .at(t)
                        .seq(sent[i])
                        .ack_to(1)
                        .payload(vec![0xab; 1448])
                        .build(),
                );
                sent[i] = sent[i].wrapping_add(1448);
                steady.push(
                    FrameBuilder::new(b, a)
                        .ports(sport, 179)
                        .at(t + Micros(2))
                        .seq(1)
                        .ack_to(sent[i])
                        .flags(TcpFlags::ACK)
                        .build(),
                );
            }
        }
        let end = Micros(FLEET_TICKS * interval.0);
        FleetScenario {
            setup,
            steady,
            interval,
            end,
            sessions,
        }
    }

    fn config(&self, shards: usize) -> MonitorConfig {
        MonitorConfig {
            interval: self.interval,
            // The fleet must stay resident: the default streaming cap
            // would LRU-evict it mid-bench.
            tracker: TrackerConfig {
                max_connections: Some(self.sessions * 2),
                ..TrackerConfig::default()
            },
            shards,
            ..MonitorConfig::default()
        }
    }

    /// Times the steady phase at a shard count: handshakes and the
    /// first tick (the fleet's one-time analysis) run outside the
    /// clock, as does cloning the frame schedule, so the measurement is
    /// [`FLEET_TICKS`]` - 1` steady-state ticks of active-fleet
    /// re-analysis plus frame routing.
    pub fn run_steady(&self, shards: usize) -> std::time::Duration {
        let mut monitor = Monitor::new(self.config(shards));
        let id = monitor.register_source("fleet");
        for f in self.setup.clone() {
            monitor.ingest_owned(id, f);
        }
        monitor.advance_to(self.interval);
        let steady = self.steady.clone();
        let started = std::time::Instant::now();
        for f in steady {
            monitor.ingest_owned(id, f);
        }
        monitor.advance_to(self.end + self.interval);
        std::hint::black_box(monitor.drain_events().len());
        started.elapsed()
    }
}
