//! The traced run (`--trace 1`): per-layer metrics from spans recorded
//! around the calls into each layer, from outside the program.
//!
//! (a) the batch path replayed stage by stage as `drive_inline` does,
//! (b) the watch path with `run_set`'s loop run by hand, (c) stand-alone
//! drains of each file through the four readers, (d) interleaved pairs of
//! the serial paths against their partitioned variants. Spans are kept in
//! memory and written to `benchmark/out/trace-<workload>.json` at exit.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use tdat::preprocess::shift_acks;
use tdat::{delay_vector_with, generate_series_with, Analyzer, BgpDemux, Report};
use tdat_bgp::{find_transfer_end_ref, MctConfig};
use tdat_monitor::{Monitor, SetEvent, SourceId};
use tdat_packet::{
    AnomalyCounts, FrameBlock, FrameView, LossyDecoder, LossyReader, MmapReader, PcapFollower,
    PcapReader,
};
use tdat_timeset::{Micros, Span, SpanScratch};
use tdat_trace::{
    label_segments, ConnKey, ConnectionTracker, FinalizedConnection, LabelConfig, TcpConnection,
    TrackerConfig,
};

use crate::corpus::{CaptureFile, Manifest, Workload};
use crate::host::{self, Yardstick};
use crate::uses::{self, Check};
use crate::{median, metric, out_dir, set_up, timed, Args, Metric, Outcome, TimedPass};

/// Frames per span of the frame-level stages.
const BLOCK: u64 = 256;

/// One recorded span. `parent` indexes the span that caused it; spans of
/// one pass share `pass`. Names starting `side.` re-run a stage on the
/// same inputs to split it and do not count toward coverage.
struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    pass: u32,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    pass: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; the clock is read last, so recording the span is
    /// not part of it.
    fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.push(name, parent, 0, 0);
        let start_ns = self.now();
        let span = &mut self.spans[id as usize];
        (span.start_ns, span.end_ns) = (start_ns, start_ns);
        id
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    fn push(&mut self, name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns,
            parent,
            pass: self.pass,
        });
        (self.spans.len() - 1) as u32
    }

    fn duration_s(&self, id: u32) -> f64 {
        let span = &self.spans[id as usize];
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span.
    fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name over the current pass, in seconds: a
    /// span's duration minus its direct children's.
    fn self_times(&self) -> HashMap<&'static str, f64> {
        let mut ns: HashMap<&'static str, i64> = HashMap::new();
        for span in self.spans.iter().filter(|s| s.pass == self.pass) {
            let duration = (span.end_ns - span.start_ns) as i64;
            *ns.entry(span.name).or_default() += duration;
            if let Some(parent) = span.parent {
                *ns.entry(self.spans[parent as usize].name).or_default() -= duration;
            }
        }
        ns.into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e9))
            .collect()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"pass\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns, s.pass
            )?;
            match s.parent {
                Some(parent) => write!(out, "{parent}")?,
                None => write!(out, "null")?,
            }
            writeln!(
                out,
                "}}{}",
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Calls `f(frame, decode_started)` for every frame of `file`, through
/// the strict reader, or the lossy one for a damaged file — noting each
/// anomaly against its connection as `analyze_lossy_with` does.
fn for_each_frame(
    file: &CaptureFile,
    quality: &mut HashMap<ConnKey, AnomalyCounts>,
    mut f: impl FnMut(&FrameView<'_>, Instant),
) {
    if file.damaged {
        let mut reader = LossyReader::open(&file.path).expect("open capture");
        loop {
            let started = Instant::now();
            let Some(lossy) = reader.next_lossy_view().expect("lossy read") else {
                break;
            };
            let key = match (&lossy.frame, lossy.endpoints) {
                (Some(frame), _) => Some(ConnKey::of(frame)),
                (None, Some((x, y))) => Some(ConnKey::of_endpoints(x, y)),
                (None, None) => None,
            };
            if let (Some(key), false) = (key, lossy.anomalies.is_empty()) {
                let counts = quality.entry(key).or_default();
                lossy.anomalies.iter().for_each(|a| counts.note(a));
            }
            if let Some(frame) = &lossy.frame {
                f(frame, started);
            }
        }
    } else {
        let mut reader = PcapReader::open(&file.path).expect("open capture");
        loop {
            let started = Instant::now();
            let Some(frame) = reader.next_view().expect("strict read") else {
                break;
            };
            f(&frame, started);
        }
    }
}

/// Counts a traced batch pass gathers for the per-unit metrics.
#[derive(Default)]
struct BatchCounts {
    failed: u64,
    /// Duration of the pass span.
    wall_s: f64,
    conns: u64,
    messages: u64,
    prefixes: u64,
}

/// Time the frame-level stages took within the current block.
#[derive(Default)]
struct BlockClock {
    frames: u64,
    start_ns: u64,
    stage_ns: [u64; 3],
}

const FRAME_STAGES: [&str; 3] = ["packet.decode", "pcap2bgp.feed", "trace.ingest"];

impl BlockClock {
    /// Emits the block's span, with one child per stage laid end to end:
    /// true durations, synthetic positions.
    fn flush(&mut self, tracer: &mut Tracer, pass: u32) {
        if self.frames == 0 {
            return;
        }
        let block = tracer.push("batch.block", Some(pass), self.start_ns, tracer.now());
        let mut at = self.start_ns;
        for (name, ns) in FRAME_STAGES.iter().zip(self.stage_ns) {
            tracer.push(name, Some(block), at, at + ns);
            at += ns;
        }
        *self = BlockClock::default();
    }
}

/// The analysis stages re-run one by one, in side spans, on the inputs
/// `analyze_extracted` just had (so cache-warm): their proportions split
/// `core.analyze` between `bgp`, `trace` and `core`.
fn side_stages(
    tracer: &mut Tracer,
    parent: u32,
    analyzer: &Analyzer,
    conn: &TcpConnection,
    extraction: &tdat_pcap2bgp::Extraction,
) {
    let profile = &conn.profile;
    let transfer = tracer.span("side.mct", parent, || {
        find_transfer_end_ref(
            profile.start,
            extraction.updates_iter(),
            &MctConfig::default(),
        )
    });
    let labels = tracer.span("side.label", parent, || {
        label_segments(conn, &LabelConfig::default())
    });
    let shifted = tracer.span("side.shift", parent, || shift_acks(conn));
    let end = transfer
        .map_or(profile.end, |t| t.span.end)
        .max(profile.start);
    let mut scratch = SpanScratch::new();
    let series = tracer.span("side.series", parent, || {
        generate_series_with(
            &shifted,
            &labels,
            Span::new(profile.start, end),
            profile.mss.unwrap_or(1448),
            profile.max_receiver_window,
            profile.rtt,
            analyzer.config(),
            &mut scratch,
        )
    });
    let vector = tracer.span("side.factors", parent, || {
        delay_vector_with(&series, analyzer.config(), &mut scratch)
    });
    black_box((vector, series, shifted, labels));
}

/// (a) One batch pass, stage by stage as `drive_inline` (or, for a
/// damaged file, `analyze_lossy_with`) runs it, then render and drop as
/// `uses::batch_pass` does. `out` must come out byte-identical.
fn traced_batch(tracer: &mut Tracer, manifest: &Manifest, out: &mut String) -> BatchCounts {
    let engine = tdat::StreamAnalyzer::with_options(Default::default(), uses::batch_options(1, 0));
    let analyzer = engine.analyzer();
    let mut counts = BatchCounts::default();
    let mut check = Check::new(manifest);
    let pass = tracer.open("batch.pass", None);
    for file in &manifest.files {
        let mut tracker = ConnectionTracker::new(TrackerConfig::batch());
        let mut demux = BgpDemux::default();
        let mut quality = HashMap::new();
        let mut analyses = Vec::new();
        let mut clock = BlockClock::default();
        let epoch = tracer.epoch;
        for_each_frame(file, &mut quality, |frame, started| {
            let decoded = Instant::now();
            demux.feed(frame);
            let fed = Instant::now();
            let finalized = tracker.ingest(frame);
            let ingested = Instant::now();
            assert!(
                finalized.is_empty(),
                "the batch tracker policy finalizes only at finish"
            );
            if clock.frames == 0 {
                clock.start_ns = (started - epoch).as_nanos() as u64;
            }
            clock.frames += 1;
            for (ns, (from, to)) in
                clock
                    .stage_ns
                    .iter_mut()
                    .zip([(started, decoded), (decoded, fed), (fed, ingested)])
            {
                *ns += (to - from).as_nanos() as u64;
            }
            if clock.frames == BLOCK {
                clock.flush(tracer, pass);
            }
        });
        clock.flush(tracer, pass);
        let rest = tracer.span("trace.finish", pass, || tracker.finish());
        for fin in rest {
            let anomalies = quality.remove(&fin.key).unwrap_or_default();
            analyses.push(analyze_one(
                tracer,
                pass,
                analyzer,
                &mut demux,
                fin,
                anomalies,
                &mut counts,
            ));
        }
        for analysis in &analyses {
            tracer.span("core.render", pass, || {
                let report = Report::from_analysis(analysis, analyzer.config());
                check.see(&report);
                out.push_str(&report.to_json());
                out.push('\n');
            });
        }
        for analysis in analyses {
            tracer.span("drop.analysis", pass, || drop(analysis));
        }
    }
    tracer.close(pass);
    counts.failed = check.finish();
    counts.wall_s = tracer.duration_s(pass);
    counts
}

/// One finalized connection through `BgpDemux::take` and
/// `Analyzer::analyze_extracted`, as `drive_inline` does it.
fn analyze_one(
    tracer: &mut Tracer,
    pass: u32,
    analyzer: &Analyzer,
    demux: &mut BgpDemux,
    fin: FinalizedConnection,
    anomalies: AnomalyCounts,
    counts: &mut BatchCounts,
) -> tdat::Analysis {
    let conn = tracer.open("batch.conn", Some(pass));
    let extraction = tracer.span("pcap2bgp.take", conn, || {
        demux.take(fin.key, fin.connection.sender)
    });
    counts.conns += 1;
    counts.messages += extraction.messages.len() as u64;
    counts.prefixes += extraction.announced_prefixes() as u64;
    let inputs = fin.connection.clone();
    // `analyze_extracted` is this call with no anomalies.
    let analysis = tracer.span("core.analyze", conn, || {
        analyzer.analyze_extracted_lossy(fin.connection, &extraction, anomalies)
    });
    side_stages(tracer, conn, analyzer, &inputs, &extraction);
    tracer.span("drop.extraction", conn, || drop(extraction));
    tracer.close(conn);
    analysis
}

/// What a traced watch pass gathers besides spans.
#[derive(Default)]
struct WatchCounts {
    failed: u64,
    /// Duration of the pass span.
    wall_s: f64,
    events: usize,
    alerts_raised: u64,
    /// Harness-timed ticks, in milliseconds.
    tick_ms: Vec<f64>,
    /// Most connections the monitor's trackers held, sampled per tick.
    open_peak: usize,
}

/// Mirror of the monitor's private tick schedule, so each due tick can
/// be run inside its own span by calling `advance_to` at the boundary.
struct TickClock {
    interval: Micros,
    next: Option<Micros>,
}

impl TickClock {
    fn advance(
        &mut self,
        tracer: &mut Tracer,
        parent: u32,
        monitor: &mut Monitor,
        to: Micros,
        counts: &mut WatchCounts,
    ) {
        match self.next {
            None => {
                monitor.advance_to(to);
                self.next = Some(to + self.interval);
            }
            Some(mut boundary) if boundary <= to => {
                counts.open_peak = counts.open_peak.max(monitor.open_connections());
                let started = tracer.now();
                tracer.span("monitor.tick", parent, || monitor.advance_to(to));
                let elapsed_ms = (tracer.now() - started) as f64 / 1e6;
                let mut ticks = 0;
                while boundary <= to {
                    boundary += self.interval;
                    ticks += 1;
                }
                self.next = Some(boundary);
                counts
                    .tick_ms
                    .extend(std::iter::repeat_n(elapsed_ms / ticks as f64, ticks));
            }
            Some(_) => {}
        }
    }
}

/// (b) One watch pass with `Monitor::run_set`'s loop run by hand. `out`
/// must come out byte-identical to `uses::watch_pass`.
fn traced_watch(
    tracer: &mut Tracer,
    workload: &Workload,
    manifest: &Manifest,
    out: &mut String,
) -> WatchCounts {
    let mut counts = WatchCounts::default();
    let pass = tracer.open("watch.pass", None);
    let mut monitor = Monitor::new(uses::watch_config(workload, 1));
    let mut set = uses::source_set(manifest);
    let ids: Vec<SourceId> = set
        .names()
        .iter()
        .map(|name| monitor.register_source(name))
        .collect();
    let mut clock = TickClock {
        interval: Micros::from_secs(workload.interval_s),
        next: None,
    };
    loop {
        let (event, anomalies) = tracer.span("monitor.poll", pass, || {
            let event = set.poll();
            (event, set.drain_anomalies())
        });
        let ingest = tracer.open("monitor.ingest", Some(pass));
        for (source, anomaly) in anomalies {
            monitor.note_anomaly_from(ids[source.index()], anomaly);
        }
        let mut finished = false;
        match event {
            SetEvent::Batch { runs, now } => {
                for run in runs {
                    let id = ids[run.source.index()];
                    for frame in &run.frames {
                        clock.advance(tracer, ingest, &mut monitor, frame.timestamp, &mut counts);
                        monitor.ingest_from(id, frame);
                    }
                }
                if let Some(now) = now {
                    clock.advance(tracer, ingest, &mut monitor, now, &mut counts);
                }
            }
            SetEvent::Pending => tracer.span("monitor.sleep", ingest, || {
                std::thread::sleep(monitor.pending_backoff())
            }),
            SetEvent::SourceFailed { source, error } => {
                monitor.note_source_failure(ids[source.index()], error)
            }
            SetEvent::SourceDown { source, error } => {
                monitor.note_source_down(ids[source.index()], error)
            }
            SetEvent::SourceUp { source, attempts } => {
                monitor.note_source_up(ids[source.index()], attempts)
            }
            SetEvent::Finished => finished = true,
        }
        tracer.close(ingest);
        if finished {
            break;
        }
    }
    tracer.span("monitor.finish", pass, || monitor.finish());
    tracer.span("monitor.render", pass, || {
        let events = monitor.drain_events();
        counts.failed = uses::render_events(manifest, &set.names(), &events, out);
        counts.events = events.len();
    });
    tracer.close(pass);
    counts.wall_s = tracer.duration_s(pass);
    counts.alerts_raised = monitor.metrics().total_alerts_raised();
    if monitor.metrics().ticks() != counts.tick_ms.len() as u64 {
        counts.failed = manifest.sessions.len() as u64;
    }
    counts
}

/// (c) Stand-alone drains of every file through each reader: seconds per
/// frame for strict, lossy, follow and mmap-block decode, and the
/// anomalies the lossy reader counted. The strict readers skip damaged
/// files, which they cannot read.
fn drain_readers(tracer: &mut Tracer, manifest: &Manifest) -> ([f64; 4], u64) {
    let mut seconds = [0.0; 4];
    let mut frames = [0u64; 4];
    let mut anomalies = 0;
    let mut drain = |reader: usize, name: &'static str, f: &mut dyn FnMut() -> u64| {
        let id = tracer.open(name, None);
        frames[reader] += f();
        tracer.close(id);
        seconds[reader] += tracer.duration_s(id);
    };
    for file in &manifest.files {
        if !file.damaged {
            drain(0, "packet.strict", &mut || {
                let mut reader = PcapReader::open(&file.path).expect("open capture");
                let mut n = 0;
                while let Some(frame) = reader.next_view().expect("strict read") {
                    black_box(&frame);
                    n += 1;
                }
                n
            });
            drain(3, "packet.mmap_block", &mut || {
                let mut reader = MmapReader::open(&file.path).expect("map capture");
                let mut block = FrameBlock::new();
                let mut n = 0;
                loop {
                    let views = reader.next_views_into(&mut block).expect("block read");
                    if views.is_empty() {
                        return n;
                    }
                    n += black_box(&views).len() as u64;
                }
            });
        }
        drain(1, "packet.lossy", &mut || {
            let mut reader = LossyReader::open(&file.path).expect("open capture");
            let mut n = 0;
            while let Some(lossy) = reader.next_lossy_view().expect("lossy read") {
                n += u64::from(black_box(&lossy).frame.is_some());
            }
            anomalies += reader.counts().total();
            n
        });
        drain(2, "packet.follow", &mut || {
            let mut follower = PcapFollower::open(&file.path).expect("open capture");
            let mut decoder = LossyDecoder::new();
            let mut n = 0;
            while let Some(lossy) = follower.poll_lossy(&mut decoder).expect("follow read") {
                n += u64::from(black_box(&lossy).frame.is_some());
            }
            n
        });
    }
    let per_frame = |reader: usize| seconds[reader] / frames[reader].max(1) as f64;
    (
        [per_frame(0), per_frame(1), per_frame(2), per_frame(3)],
        anomalies,
    )
}

/// (d) Runs `variants[0]` (the serial path) and the others interleaved,
/// three times each, rotating which goes first. Returns per variant the
/// median wall and CPU seconds, and whether every output equalled
/// `reference` byte for byte.
fn interleaved(
    variants: &mut [&mut dyn FnMut(&mut String)],
    reference: &str,
) -> (Vec<(f64, f64)>, bool) {
    let n = variants.len();
    let mut wall = vec![Vec::new(); n];
    let mut cpu = vec![Vec::new(); n];
    let mut identical = true;
    for round in 0..3 {
        for k in 0..n {
            let v = (k + round) % n;
            let mut out = String::new();
            let (cpu_before, started) = (host::cpu_seconds(), Instant::now());
            variants[v](&mut out);
            wall[v].push(started.elapsed().as_secs_f64());
            cpu[v].push(host::cpu_seconds() - cpu_before);
            identical &= reference == out;
        }
    }
    let medians = (0..n)
        .map(|v| (median(&wall[v]), median(&cpu[v])))
        .collect();
    (medians, identical)
}

/// The quantile of sorted `samples` at `q`, lowered until at least ten
/// samples lie beyond it (never below the median).
fn supported_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    let q = q.min(1.0 - 10.0 / n).max(0.5);
    sorted[((q * n) as usize).min(sorted.len() - 1)]
}

pub fn run_traced(args: &Args) -> Outcome {
    let workload = &args.workload;
    let (manifest, _) = set_up(args, 1);
    let sessions = manifest.sessions.len() as u64;
    let frames = manifest.frames as f64;
    let mut tracer = Tracer {
        epoch: Instant::now(),
        // Room for every span of the largest workload: no pass pays for
        // growing the vector.
        spans: Vec::with_capacity(1 << 19),
        pass: 0,
    };
    let mut failed = 0;
    let mut passes = 0;
    let mut yard = Yardstick::measure();
    let mut yardsticks = vec![yard];
    // Untraced pass, timed, with its output.
    let mut untraced = |use_batch: bool, yard: &mut Yardstick, failed: &mut u64| {
        let mut out = String::new();
        let (bad, pass) = timed(yard, || {
            if use_batch {
                uses::batch_pass(&manifest, uses::batch_options(1, 0), &mut out)
            } else {
                uses::watch_pass(workload, &manifest, 1, &mut out).failed
            }
        });
        yardsticks.push(*yard);
        *failed += bad;
        (pass, out)
    };

    // Batch: counted pass, then untraced / traced / untraced.
    let (bad, batch_alloc) = host::counted(|| {
        uses::batch_pass(&manifest, uses::batch_options(1, 0), &mut String::new())
    });
    failed += bad;
    let (batch_before, batch_ref) = untraced(true, &mut yard, &mut failed);
    tracer.pass = 1;
    let mut batch_out = String::new();
    let (batch, batch_traced) = timed(&mut yard, || {
        traced_batch(&mut tracer, &manifest, &mut batch_out)
    });
    let batch_self = tracer.self_times();
    let (batch_after, _) = untraced(true, &mut yard, &mut failed);
    failed += batch.failed + if batch_out == batch_ref { 0 } else { sessions };

    // Watch: the same.
    let (stats, watch_alloc) =
        host::counted(|| uses::watch_pass(workload, &manifest, 1, &mut String::new()));
    failed += stats.failed;
    let (watch_before, watch_ref) = untraced(false, &mut yard, &mut failed);
    tracer.pass = 2;
    let mut watch_out = String::new();
    let (watch, watch_traced) = timed(&mut yard, || {
        traced_watch(&mut tracer, workload, &manifest, &mut watch_out)
    });
    let watch_self = tracer.self_times();
    let (watch_after, _) = untraced(false, &mut yard, &mut failed);
    failed += watch.failed + if watch_out == watch_ref { 0 } else { sessions };
    passes += 8;
    // Untraced pass times: wall, and in yardstick terms. A traced pass is
    // compared with the untraced passes around it in yardstick terms, so
    // host drift between them does not read as coverage or overhead.
    let mean = |a: TimedPass, b: TimedPass, f: fn(TimedPass) -> f64| 0.5 * (f(a) + f(b));
    let batch_untraced_s = mean(batch_before, batch_after, |p| p.raw_s);
    let watch_untraced_s = mean(watch_before, watch_after, |p| p.raw_s);
    let batch_scale = batch_traced.factor * mean(batch_before, batch_after, |p| p.raw_s / p.factor);
    let watch_scale = watch_traced.factor * mean(watch_before, watch_after, |p| p.raw_s / p.factor);

    tracer.pass = 3;
    let (reader_s, anomalies) = drain_readers(&mut tracer, &manifest);

    let batch_variant = |workers, shards| {
        let manifest = &manifest;
        move |out: &mut String| {
            uses::batch_pass(manifest, uses::batch_options(workers, shards), out);
        }
    };
    let (mut serial, mut sharded, mut pooled) = (
        batch_variant(1, 0),
        batch_variant(1, 2),
        batch_variant(2, 0),
    );
    let variants: &mut [&mut dyn FnMut(&mut String)] =
        &mut [&mut serial, &mut sharded, &mut pooled];
    let (batch_pairs, batch_identical) = interleaved(variants, &batch_ref);
    let watch_variant = |shards| {
        let manifest = &manifest;
        move |out: &mut String| {
            uses::watch_pass(workload, manifest, shards, out);
        }
    };
    let (mut serial, mut sharded) = (watch_variant(1), watch_variant(2));
    let variants: &mut [&mut dyn FnMut(&mut String)] = &mut [&mut serial, &mut sharded];
    let (watch_pairs, watch_identical) = interleaved(variants, &watch_ref);
    if !(batch_identical && watch_identical) {
        failed += sessions;
    }
    passes += 15;

    tracer
        .write(&out_dir(workload).with_file_name(format!("trace-{}.json", workload.name)))
        .expect("write the span file");

    // Stage self times: `b` over the batch pass, `w` over the watch pass.
    let b = |name: &str| batch_self.get(name).copied().unwrap_or(0.0);
    let w = |name: &str| watch_self.get(name).copied().unwrap_or(0.0);
    let conns = batch.conns.max(1) as f64;
    let drops = b("drop.extraction") + b("drop.analysis");
    let side =
        b("side.mct") + b("side.label") + b("side.shift") + b("side.series") + b("side.factors");
    // The layers' own time in the traced batch pass; `core.analyze`
    // calls into `bgp` (MCT) and `trace` (labelling), and is split
    // between the three in the side spans' proportions.
    let within_analyze = |name: &str| b("core.analyze") * b(name) / side;
    let (bgp, label) = (within_analyze("side.mct"), within_analyze("side.label"));
    let packet = b("packet.decode");
    let trace = b("trace.ingest") + b("trace.finish") + label;
    let pcap2bgp = b("pcap2bgp.feed") + b("pcap2bgp.take");
    let core = b("core.analyze") - bgp - label + b("core.render");
    let batch_stages = packet + trace + pcap2bgp + bgp + core + drops;
    let watch_stages = w("monitor.poll")
        + w("monitor.ingest")
        + w("monitor.tick")
        + w("monitor.finish")
        + w("monitor.render");
    // Coverage of whichever use the stages account for worst.
    let coverage = [batch_stages / batch_scale, watch_stages / watch_scale]
        .into_iter()
        .max_by(|x, y| (x - 1.0).abs().total_cmp(&(y - 1.0).abs()))
        .expect("two uses");
    let mut ticks = watch.tick_ms.clone();
    ticks.sort_by(f64::total_cmp);
    let sleep_s = w("monitor.sleep");
    if sleep_s > 0.01 * watch.wall_s {
        failed += sessions;
    }
    let factors: Vec<f64> = yardsticks.iter().map(Yardstick::factor).collect();
    let spin_ms: Vec<f64> = yardsticks.iter().map(|y| y.spin_s * 1e3).collect();
    let churn_ms: Vec<f64> = yardsticks.iter().map(|y| y.churn_s * 1e3).collect();
    let spread = factors.iter().fold(0.0, |m: f64, f| m.max(*f))
        / factors.iter().fold(f64::MAX, |m, f| m.min(*f));
    let speedup = |pairs: &[(f64, f64)], v: usize| pairs[0].0 / pairs[v].0;
    eprintln!(
        "{}: stages cover {:.3} of the untraced batch pass and {:.3} of the untraced watch pass",
        workload.name,
        batch_stages / batch_scale,
        watch_stages / watch_scale
    );

    // One line per metric, in `BENCHMARK.json`'s order.
    #[rustfmt::skip]
    let metrics: Vec<Metric> = vec![
        metric("packet.strict.ns_per_frame", "ns", reader_s[0] * 1e9),
        metric("packet.lossy.ns_per_frame", "ns", reader_s[1] * 1e9),
        metric("packet.follow.ns_per_frame", "ns", reader_s[2] * 1e9),
        metric("packet.mmap_block.ns_per_frame", "ns", reader_s[3] * 1e9),
        metric("packet.anomalies", "count", anomalies as f64),
        metric("trace.ingest.ns_per_frame", "ns", b("trace.ingest") * 1e9 / frames),
        metric("trace.finish.us_per_conn", "us", b("trace.finish") * 1e6 / conns),
        metric("trace.label.us_per_conn", "us", b("side.label") * 1e6 / conns),
        metric("trace.open_peak", "count", watch.open_peak as f64),
        metric("pcap2bgp.feed.ns_per_frame", "ns", b("pcap2bgp.feed") * 1e9 / frames),
        metric("pcap2bgp.take.us_per_conn", "us", b("pcap2bgp.take") * 1e6 / conns),
        metric("pcap2bgp.messages", "count", batch.messages as f64),
        metric("bgp.mct.us_per_conn", "us", b("side.mct") * 1e6 / conns),
        metric("bgp.mct.ns_per_prefix", "ns", b("side.mct") * 1e9 / batch.prefixes.max(1) as f64),
        metric("core.analyze.us_per_conn", "us", b("core.analyze") * 1e6 / conns),
        metric("core.shift.us_per_conn", "us", b("side.shift") * 1e6 / conns),
        metric("core.series.us_per_conn", "us", b("side.series") * 1e6 / conns),
        metric("core.factors.us_per_conn", "us", b("side.factors") * 1e6 / conns),
        metric("core.render.us_per_conn", "us", b("core.render") * 1e6 / conns),
        metric("core.render.bytes_per_conn", "B", batch_out.len() as f64 / conns),
        metric("core.drop.us_per_conn", "us", drops * 1e6 / conns),
        metric("core.sharded2.speedup", "ratio", speedup(&batch_pairs, 1)),
        metric("core.sharded2.cpu_ratio", "ratio", batch_pairs[1].1 / batch_pairs[0].1),
        metric("core.pooled2.speedup", "ratio", speedup(&batch_pairs, 2)),
        metric("monitor.poll.ns_per_frame", "ns", w("monitor.poll") * 1e9 / frames),
        metric("monitor.ingest.ns_per_frame", "ns", w("monitor.ingest") * 1e9 / frames),
        metric("monitor.tick.p50_ms", "ms", supported_quantile(&ticks, 0.5)),
        metric("monitor.tick.p95_ms", "ms", supported_quantile(&ticks, 0.95)),
        metric("monitor.tick.max_ms", "ms", ticks.last().copied().unwrap_or(0.0)),
        metric("monitor.ticks", "count", ticks.len() as f64),
        metric("monitor.finish.ms", "ms", w("monitor.finish") * 1e3),
        metric("monitor.render.us_per_event", "us", w("monitor.render") * 1e6 / watch.events.max(1) as f64),
        metric("monitor.events", "count", watch.events as f64),
        metric("monitor.alerts_raised", "count", watch.alerts_raised as f64),
        metric("monitor.sleep_ms", "ms", sleep_s * 1e3),
        metric("monitor.sharded2.speedup", "ratio", speedup(&watch_pairs, 1)),
        metric("batch.share.packet", "ratio", packet / batch_stages),
        metric("batch.share.trace", "ratio", trace / batch_stages),
        metric("batch.share.pcap2bgp", "ratio", pcap2bgp / batch_stages),
        metric("batch.share.bgp", "ratio", bgp / batch_stages),
        metric("batch.share.core", "ratio", core / batch_stages),
        metric("batch.share.drop", "ratio", drops / batch_stages),
        metric("watch.share.poll", "ratio", w("monitor.poll") / watch_stages),
        metric("watch.share.ingest", "ratio", w("monitor.ingest") / watch_stages),
        metric("watch.share.tick", "ratio", w("monitor.tick") / watch_stages),
        metric("watch.share.finish", "ratio", w("monitor.finish") / watch_stages),
        metric("watch.share.render", "ratio", w("monitor.render") / watch_stages),
        metric("alloc.batch.count_per_frame", "count", batch_alloc.allocs as f64 / frames),
        metric("alloc.batch.bytes_per_frame", "B", batch_alloc.bytes as f64 / frames),
        metric("alloc.watch.count_per_frame", "count", watch_alloc.allocs as f64 / frames),
        metric("alloc.watch.bytes_per_frame", "B", watch_alloc.bytes as f64 / frames),
        metric("tcpsim.generate.kframes_per_s", "kframes/s", frames / 1e3 / manifest.sim_time.as_secs_f64()),
        metric("host.spin_ms", "ms", median(&spin_ms)),
        metric("host.churn_ms", "ms", median(&churn_ms)),
        metric("host.factor", "ratio", median(&factors)),
        metric("host.factor_spread", "ratio", spread),
        metric("batch.raw_kframes_per_s", "kframes/s", frames / 1e3 / batch_untraced_s),
        metric("watch.raw_kframes_per_s", "kframes/s", frames / 1e3 / watch_untraced_s),
        metric("proc.peak_rss_mib", "MiB", host::peak_rss_mib()),
        metric("bench.trace_coverage", "ratio", coverage),
        metric("bench.trace_overhead", "ratio", (batch.wall_s - side + watch.wall_s) / (batch_scale + watch_scale) - 1.0),
    ];
    Outcome {
        attempted: sessions * passes,
        failed,
        metrics,
    }
}
