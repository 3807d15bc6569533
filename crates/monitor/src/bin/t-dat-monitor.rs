//! `t-dat-monitor` — watch BGP sessions live and stream JSONL events.
//!
//! ```text
//! t-dat-monitor --follow <pcap> [--follow <pcap> ...] [--sim <scenario> ...]
//! t-dat-monitor --sweep <dir> [--jobs N]
//!
//! source options (repeatable, freely mixed):
//!   --follow PATH     tail a growing pcap file
//!   --sim SPEC        drive a simulated scenario as a live tap
//!   --sweep DIR       batch-drain every *.pcap/*.cap in DIR
//!
//! common options:
//!   --window SECS     trailing analysis window      (default 120)
//!   --interval SECS   trace time between ticks      (default 10)
//!   --events PATH     JSONL output, "-" for stdout  (default -)
//!   --exit-idle SECS  follow mode: finish after SECS without records
//!   --stale SECS      multi-source: drop a silent source from the
//!                     merge clock after SECS (default 5 when plural)
//!   --pace F          sim mode: F virtual seconds per wall second
//!   --routes N        sim table size   --seed S   sim RNG seed
//!   --jobs N          sweep worker threads (default: CPU count)
//!   --shards N        partition connections across N worker lanes
//!                     (default 1 = analyze inline; output is
//!                     byte-identical for any N; measured cost on a
//!                     2-core host: monitor.sharded2.speedup 0.92 /
//!                     1.04 / 0.82, see benchmark/README.md)
//!
//! supervision options:
//!   --checkpoint PATH periodically snapshot recovery state to PATH
//!                     (atomic replace + checksum)
//!   --resume          continue a crashed watch: append to --events
//!                     after replaying and suppressing the lines it
//!                     already holds (needs --checkpoint and a file
//!                     --events PATH)
//!   --faults SPEC     deterministic fault injection, e.g.
//!                     "source.poll:b.pcap@hit=2;atomic.rename@once"
//!   --fault-seed N    seed for probabilistic fault triggers (default 0)
//! ```
//!
//! Every `--follow` and `--sim` becomes one named source in a merged
//! watch: frames release in global timestamp order (a watermark merge
//! holds a fast source back until its slowest sibling catches up), and
//! every alert, report, and failure is attributed to the source that
//! produced it. One dying source degrades only its own view — the
//! siblings keep streaming, and a source that failed with a transient
//! error (I/O, truncation) is reopened under exponential backoff and
//! resumes at its released watermark. `--sweep` instead drains a
//! directory of finished captures in parallel, one independent monitor
//! per file, and concatenates the streams in file-name order.
//!
//! The stream is `tdat-monitor-events/2` however many sources there
//! are: a `meta` line naming the sources, then one line per event, each
//! carrying the `source` it is attributed to.
//!
//! Events use trace (virtual) time only, so a given input produces
//! byte-identical output. That determinism is what makes `--resume`
//! exact: a restarted watch replays its sources from the origin,
//! counts the complete lines already in the events file (truncating a
//! torn trailing line the crash may have left), suppresses exactly
//! that many regenerated lines, and appends — the concatenation is
//! byte-identical to a watch that never died. A metrics summary goes
//! to stderr on exit.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tdat_monitor::{
    sweep_directory, Checkpoint, EventSchema, Monitor, MonitorConfig, SourceCheckpoint, SourceSet,
    SourceSpec, Step,
};
use tdat_tcpsim::scenario::{ScenarioOptions, SCENARIO_USAGE};
use tdat_timeset::faultpoint::FaultPlan;
use tdat_timeset::Micros;

/// Default stale valve with plural sources: a silent feed stops
/// holding back its siblings' analysis after this long.
const DEFAULT_STALE: Duration = Duration::from_secs(5);

/// Wall-clock cadence between checkpoint snapshots.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut specs: Vec<SourceSpec> = Vec::new();
    let mut sweep: Option<String> = None;
    let mut events = String::from("-");
    let mut window_s = 120.0f64;
    let mut interval_s = 10.0f64;
    let mut exit_idle: Option<f64> = None;
    let mut stale: Option<f64> = None;
    let mut pace: Option<f64> = None;
    let mut jobs: Option<usize> = None;
    let mut shards: usize = 1;
    let mut checkpoint: Option<String> = None;
    let mut resume = false;
    let mut faults_spec: Option<String> = None;
    let mut fault_seed: u64 = 0;
    let mut opts = ScenarioOptions::default();
    let mut sims: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--follow" => specs.push(SourceSpec::follow(take("--follow")?)),
                // Sim specs are validated after the whole command line
                // is parsed, so --routes/--seed order does not matter.
                "--sim" => sims.push(take("--sim")?),
                "--sweep" => sweep = Some(take("--sweep")?),
                "--events" => events = take("--events")?,
                "--window" => window_s = parse(&take("--window")?, "--window")?,
                "--interval" => interval_s = parse(&take("--interval")?, "--interval")?,
                "--exit-idle" => exit_idle = Some(parse(&take("--exit-idle")?, "--exit-idle")?),
                "--stale" => stale = Some(parse(&take("--stale")?, "--stale")?),
                "--pace" => pace = Some(parse(&take("--pace")?, "--pace")?),
                "--jobs" => jobs = Some(parse(&take("--jobs")?, "--jobs")?),
                "--shards" => shards = parse(&take("--shards")?, "--shards")?,
                "--routes" => opts.routes = parse(&take("--routes")?, "--routes")?,
                "--seed" => opts.seed = parse(&take("--seed")?, "--seed")?,
                "--checkpoint" => checkpoint = Some(take("--checkpoint")?),
                "--resume" => resume = true,
                "--faults" => faults_spec = Some(take("--faults")?),
                "--fault-seed" => fault_seed = parse(&take("--fault-seed")?, "--fault-seed")?,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })();
        if let Err(message) = result {
            return usage(&message);
        }
    }
    for value in [window_s, interval_s] {
        if !value.is_finite() || value <= 0.0 {
            return usage("--window and --interval must be positive");
        }
    }
    if jobs == Some(0) {
        return usage("--jobs must be at least 1 (omit the flag for auto)");
    }
    if let Some(valve) = stale {
        if !valve.is_finite() || valve <= 0.0 {
            return usage("--stale must be a positive number of seconds");
        }
    }
    if resume {
        if checkpoint.is_none() {
            return usage("--resume needs --checkpoint PATH to validate the watch against");
        }
        if events == "-" {
            return usage("--resume needs --events PATH (a file to count and append to)");
        }
    }
    if sweep.is_some() && (resume || checkpoint.is_some()) {
        return usage("--checkpoint/--resume supervise live watches, not --sweep");
    }
    let faults = match &faults_spec {
        Some(spec) => match FaultPlan::parse(spec, fault_seed) {
            Ok(plan) => plan,
            Err(e) => return usage(&format!("--faults: {e}")),
        },
        None => FaultPlan::disabled(),
    };
    let config = match MonitorConfig::builder()
        .window(Micros::from_secs_f64(window_s))
        .interval(Micros::from_secs_f64(interval_s))
        .shards(shards)
        .build()
    {
        Ok(config) => config,
        Err(e) => return usage(&e.to_string()),
    };
    for spec in sims {
        match SourceSpec::sim(&spec, opts.clone(), config.interval) {
            Ok(mut sim) => {
                if let Some(factor) = pace {
                    sim = sim.with_pace(factor);
                }
                specs.push(sim);
            }
            Err(e) => return usage(&format!("--sim: {e}")),
        }
    }
    if let Some(budget) = exit_idle {
        specs = specs
            .into_iter()
            .map(|s| s.with_exit_idle(Duration::from_secs_f64(budget)))
            .collect();
    }
    if specs.is_empty() && sweep.is_none() {
        return usage("at least one of --follow, --sim, or --sweep is required");
    }

    // Resume: the events file is the authority on how far the previous
    // incarnation got. Count its complete event lines (dropping a torn
    // tail), then replay the watch from the origin suppressing that many.
    let mut skip = 0u64;
    let mut write_preamble = true;
    if resume {
        match prepare_resume(&events) {
            Ok(Some(lines)) => {
                write_preamble = false;
                skip = lines;
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("t-dat-monitor: --resume: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let stdout = std::io::stdout();
    let mut out: Box<dyn Write> = if events == "-" {
        Box::new(stdout.lock())
    } else {
        let opened = if resume {
            std::fs::File::options()
                .create(true)
                .append(true)
                .open(&events)
        } else {
            std::fs::File::create(&events)
        };
        match opened {
            Ok(file) => Box::new(std::io::BufWriter::new(file)),
            Err(e) => {
                eprintln!("t-dat-monitor: {events}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // Sweep mode: drain the corpus, then (optionally) keep watching the
    // live sources. Exit failure if any swept file failed.
    let mut failed = false;
    if let Some(dir) = &sweep {
        match sweep_directory(dir, &config, jobs.unwrap_or(0)) {
            Ok(report) => {
                if let Some(preamble) = EventSchema::V2.preamble(
                    &report
                        .outcomes
                        .iter()
                        .map(|o| o.source.as_str())
                        .collect::<Vec<_>>(),
                ) {
                    if writeln!(out, "{preamble}").is_err() {
                        return ExitCode::FAILURE;
                    }
                }
                for outcome in &report.outcomes {
                    match &outcome.result {
                        Ok(events) => {
                            for event in events {
                                if writeln!(out, "{}", event.to_json()).is_err() {
                                    return ExitCode::FAILURE;
                                }
                            }
                        }
                        Err(e) => {
                            failed = true;
                            eprintln!("t-dat-monitor: sweep: {}: {e}", outcome.file.display());
                        }
                    }
                }
                eprintln!(
                    "t-dat-monitor: swept {} file(s), {} failed",
                    report.outcomes.len(),
                    report.failed()
                );
                failed |= report.failed() > 0;
            }
            Err(e) => {
                eprintln!("t-dat-monitor: sweep: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if specs.is_empty() {
        if out.flush().is_err() {
            return ExitCode::FAILURE;
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let plural = specs.len() > 1 || sweep.is_some();
    let mut builder = SourceSet::builder().faults(faults.clone());
    for spec in specs {
        builder = builder.source(spec);
    }
    if plural {
        builder = builder.stale_after(stale.map(Duration::from_secs_f64).unwrap_or(DEFAULT_STALE));
    } else if let Some(valve) = stale {
        builder = builder.stale_after(Duration::from_secs_f64(valve));
    }
    let mut set = match builder.build() {
        Ok(set) => set,
        Err(e) => {
            eprintln!("t-dat-monitor: {e}");
            return ExitCode::FAILURE;
        }
    };

    // A checkpoint left by the previous incarnation validates that we
    // are resuming the same watch (same sources, same order); a corrupt
    // one is reported and ignored — the events file stays authoritative.
    let ckpt = checkpoint.as_ref().map(|path| CheckpointCtx {
        path: PathBuf::from(path),
        faults: faults.clone(),
        last: Instant::now(),
    });
    if resume {
        if let Some(ctx) = &ckpt {
            match Checkpoint::load(&ctx.path) {
                Ok(prev) => {
                    let names = set.names();
                    let ours: Vec<&str> = names.iter().map(|n| &**n).collect();
                    let theirs: Vec<&str> = prev.sources.iter().map(|s| s.name.as_str()).collect();
                    if ours != theirs {
                        eprintln!(
                            "t-dat-monitor: --resume: checkpoint {} describes sources \
                             {theirs:?}, this watch has {ours:?}",
                            ctx.path.display()
                        );
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => eprintln!(
                    "t-dat-monitor: ignoring checkpoint {}: {e}",
                    ctx.path.display()
                ),
            }
        }
    }

    let mut output = WatchOutput {
        out: &mut out,
        skip,
        emitted: skip,
        write_preamble,
    };
    let mut monitor = Monitor::new(config);
    let status = drive(&mut monitor, &mut set, &mut output, ckpt);
    eprint!("{}", monitor.metrics());
    failed |= !set.failures().is_empty();
    match status {
        Ok(()) if !failed => ExitCode::SUCCESS,
        Ok(()) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("t-dat-monitor: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where the event stream goes, plus the resume bookkeeping: `skip`
/// output lines are suppressed (they are already in the file from the
/// previous incarnation) and `emitted` tracks how many event lines the
/// file holds, for checkpoints.
struct WatchOutput<'a> {
    out: &'a mut Box<dyn Write>,
    skip: u64,
    emitted: u64,
    write_preamble: bool,
}

/// A `--checkpoint` destination and its write cadence.
struct CheckpointCtx {
    path: PathBuf,
    faults: FaultPlan,
    last: Instant,
}

/// Readies the events file at `path` for a resumed watch: the number of
/// event lines after its `meta` preamble, or `None` when it holds no
/// complete line yet (missing, empty, or torn inside the preamble).
/// A torn trailing partial line a crash may have left mid-write is
/// truncated; a file whose first line is not a `meta` preamble is
/// refused and left as it is.
fn prepare_resume(path: &str) -> Result<Option<u64>, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let keep = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(i) => i + 1,
        None => 0,
    };
    if keep > 0 && !bytes.starts_with(b"{\"type\":\"meta\"") {
        return Err(format!(
            "{path}: the first line is not a tdat-monitor-events/2 meta line (an older \
             single-source stream, or not an events file); refusing to resume into it"
        ));
    }
    if keep < bytes.len() {
        let file = std::fs::File::options()
            .write(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        file.set_len(keep as u64)
            .map_err(|e| format!("{path}: truncating torn line: {e}"))?;
        eprintln!(
            "t-dat-monitor: {path}: dropped a torn trailing line ({} byte(s))",
            bytes.len() - keep
        );
    }
    let lines = bytes[..keep].iter().filter(|&&b| b == b'\n').count() as u64;
    Ok(lines.checked_sub(1))
}

/// Snapshots recovery state to the checkpoint file; failures are
/// reported but never kill the watch (the previous checkpoint, if any,
/// is still intact thanks to the atomic replace).
fn write_checkpoint(ctx: &CheckpointCtx, set: &SourceSet, monitor: &Monitor, emitted: u64) {
    let sources = set
        .progress()
        .into_iter()
        .map(|p| SourceCheckpoint {
            name: p.name.to_string(),
            offset: p.cursor.as_ref().map(|c| c.offset).unwrap_or(0),
            records_read: p.cursor.as_ref().map(|c| c.records_read).unwrap_or(0),
            watermark: p.watermark,
            frames_accepted: p.frames_accepted,
        })
        .collect();
    let snapshot = Checkpoint {
        now: set.last_now().unwrap_or(Micros(0)),
        events_emitted: emitted,
        alert_fingerprint: monitor.alert_fingerprint(),
        sources,
    };
    if let Err(e) = snapshot.write(&ctx.path, &ctx.faults) {
        eprintln!("t-dat-monitor: checkpoint {}: {e}", ctx.path.display());
    }
}

/// The streaming main loop: [`Monitor::run_set`]'s loop with the
/// events written out after every step that can produce them, and the
/// checkpoint cadence in between. Per-source failures are logged and
/// the loop keeps going; transient outages surface as down/up pairs
/// while the set resurrects the source.
fn drive(
    monitor: &mut Monitor,
    set: &mut SourceSet,
    output: &mut WatchOutput<'_>,
    mut ckpt: Option<CheckpointCtx>,
) -> Result<(), String> {
    let ids = monitor.register_set(set);
    if output.write_preamble {
        if let Some(preamble) = EventSchema::V2.preamble(&set.names()) {
            writeln!(output.out, "{preamble}").map_err(|e| e.to_string())?;
        }
    }
    loop {
        match monitor.step(set, &ids) {
            Step::Progress => write_events(monitor, output)?,
            Step::Notice(notice) => {
                eprintln!("t-dat-monitor: {notice}");
                write_events(monitor, output)?;
            }
            Step::Pending => {
                // Keep downstream consumers (tail -f) current while idle.
                output.out.flush().map_err(|e| e.to_string())?;
                std::thread::sleep(monitor.pending_backoff());
            }
            Step::Finished => break,
        }
        if let Some(ctx) = ckpt.as_mut() {
            if ctx.last.elapsed() >= CHECKPOINT_EVERY {
                write_checkpoint(ctx, set, monitor, output.emitted);
                ctx.last = Instant::now();
            }
        }
    }
    monitor.finish();
    write_events(monitor, output)?;
    output.out.flush().map_err(|e| e.to_string())?;
    if let Some(ctx) = &ckpt {
        // Final snapshot after the stream is durable, so the checkpoint
        // never claims more lines than the file holds.
        write_checkpoint(ctx, set, monitor, output.emitted);
    }
    Ok(())
}

fn write_events(monitor: &mut Monitor, output: &mut WatchOutput<'_>) -> Result<(), String> {
    for event in monitor.drain_events() {
        if output.skip > 0 {
            // Replaying into a resumed file: this line is already there.
            output.skip -= 1;
            continue;
        }
        writeln!(output.out, "{}", event.to_json()).map_err(|e| e.to_string())?;
        output.emitted += 1;
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value {value:?}"))
}

fn usage(message: &str) -> ExitCode {
    if !message.is_empty() {
        eprintln!("t-dat-monitor: {message}");
    }
    eprintln!(
        "usage: t-dat-monitor [--follow <pcap>]... [--sim <{SCENARIO_USAGE}>]... \
         [--sweep <dir> [--jobs N]] [--exit-idle SECS] [--stale SECS] \
         [--routes N] [--seed S] [--pace F] \
         [--window SECS] [--interval SECS] [--events PATH] [--shards N] \
         [--checkpoint PATH] [--resume] [--faults SPEC] [--fault-seed N]\n\
         --shards N: byte-identical output at any N; monitor.sharded2.speedup \
         0.92 / 1.04 / 0.82 on a 2-core host, see benchmark/README.md"
    );
    ExitCode::from(2)
}
