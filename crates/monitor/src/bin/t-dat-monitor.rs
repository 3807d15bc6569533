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
//!
//! supervision options:
//!   --resume          continue a crashed watch: append to --events
//!                     after replaying and suppressing the lines it
//!                     already holds (needs a file --events PATH whose
//!                     meta line names this watch's sources)
//!   --faults SPEC     deterministic fault injection, e.g.
//!                     "source.poll:b.pcap@hit=2;source.open:b.pcap@once"
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
//! are: one `meta` line naming the sources (the swept files first, then
//! the live sources), then one line per event, each carrying the
//! `source` it is attributed to.
//!
//! Events use trace (virtual) time only, so a given input produces
//! byte-identical output. That determinism is what makes `--resume`
//! exact: a restarted watch replays its sources from the origin,
//! counts the complete lines already in the events file (truncating a
//! torn trailing line the crash may have left), suppresses exactly
//! that many regenerated lines, and appends — the concatenation is
//! byte-identical to a watch that never died. The file is its own
//! validation: its `meta` line must name the sources this watch was
//! given, in order, or the resume is refused before a byte of the file
//! changes. A metrics summary goes to stderr on exit.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use tdat::json::{self, JsonValue};
use tdat_monitor::{
    sweep_directory, unique_name, EventSchema, Monitor, MonitorConfig, SourceSet, SourceSpec, Step,
    SweepReport,
};
use tdat_tcpsim::scenario::{ScenarioOptions, SCENARIO_USAGE};
use tdat_timeset::faultpoint::FaultPlan;
use tdat_timeset::Micros;

/// Default stale valve with plural sources: a silent feed stops
/// holding back its siblings' analysis after this long.
const DEFAULT_STALE: Duration = Duration::from_secs(5);

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut specs: Vec<SourceSpec> = Vec::new();
    let mut sweep: Option<String> = None;
    let mut events = String::from("-");
    let mut window = Micros::from_secs(120);
    let mut interval = Micros::from_secs(10);
    let mut exit_idle: Option<Duration> = None;
    let mut stale: Option<Duration> = None;
    let mut pace: Option<f64> = None;
    let mut jobs: Option<usize> = None;
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
                "--window" => window = trace_seconds(&take("--window")?, "--window")?,
                "--interval" => interval = trace_seconds(&take("--interval")?, "--interval")?,
                "--exit-idle" => {
                    exit_idle = Some(seconds(&take("--exit-idle")?, "--exit-idle", true)?)
                }
                "--stale" => stale = Some(seconds(&take("--stale")?, "--stale", false)?),
                // A factor (virtual seconds per wall second), refused
                // wherever that many seconds would be.
                "--pace" => pace = Some(seconds(&take("--pace")?, "--pace", false)?.as_secs_f64()),
                "--jobs" => jobs = Some(parse(&take("--jobs")?, "--jobs")?),
                "--routes" => opts.routes = parse(&take("--routes")?, "--routes")?,
                "--seed" => opts.seed = parse(&take("--seed")?, "--seed")?,
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
    if jobs == Some(0) {
        return usage("--jobs must be at least 1 (omit the flag for auto)");
    }
    if resume && events == "-" {
        return usage("--resume needs --events PATH (a file to check, count and append to)");
    }
    if resume && sweep.is_some() {
        return usage("--resume supervises live watches, not --sweep");
    }
    let faults = match &faults_spec {
        Some(spec) => match FaultPlan::parse(spec, fault_seed) {
            Ok(plan) => plan,
            Err(e) => return usage(&format!("--faults: {e}")),
        },
        None => FaultPlan::disabled(),
    };
    let config = match MonitorConfig::builder()
        .window(window)
        .interval(interval)
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
            .map(|s| s.with_exit_idle(budget))
            .collect();
    }
    if specs.is_empty() && sweep.is_none() {
        return usage("at least one of --follow, --sim, or --sweep is required");
    }

    // Sweep mode drains the corpus first; its events are written ahead
    // of the live sources' (if any). Exit failure if any swept file
    // failed.
    let swept = match &sweep {
        Some(dir) => match sweep_directory(dir, &config, jobs.unwrap_or(0)) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("t-dat-monitor: sweep: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let plural = specs.len() > 1 || swept.is_some();
    let set = if specs.is_empty() {
        None
    } else {
        // A live source is named apart from the swept files too, as
        // the set names its own sources apart.
        let mut taken: Vec<String> = swept
            .iter()
            .flat_map(|report| report.outcomes.iter().map(|o| o.source.clone()))
            .collect();
        let mut builder = SourceSet::builder().faults(faults);
        for spec in specs {
            let name = unique_name(&taken, &spec.label());
            taken.push(name.clone());
            builder = builder.named(name, spec);
        }
        if let Some(valve) = stale.or(plural.then_some(DEFAULT_STALE)) {
            builder = builder.stale_after(valve);
        }
        match builder.build() {
            Ok(set) => Some(set),
            Err(e) => {
                eprintln!("t-dat-monitor: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // Resume: the events file is the authority on how far the previous
    // incarnation got, and on which watch it was. Check its meta line
    // against this watch's sources, count its complete event lines
    // (dropping a torn tail), then replay the watch from the origin
    // suppressing that many.
    let mut skip = 0u64;
    let mut write_preamble = true;
    if let Some(set) = set.as_ref().filter(|_| resume) {
        match prepare_resume(&events, &set.names()) {
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

    // One `meta` line for the whole stream: the swept files, then the
    // live sources, in the order their events follow it.
    if write_preamble {
        let mut names: Vec<&str> = swept
            .iter()
            .flat_map(|report| report.outcomes.iter().map(|o| o.source.as_str()))
            .collect();
        let live = set.as_ref().map(SourceSet::names).unwrap_or_default();
        names.extend(live.iter().map(|name| &**name));
        let written = match EventSchema::V2.preamble(&names) {
            Some(preamble) => writeln!(out, "{preamble}"),
            None => Ok(()),
        };
        if let Err(e) = written {
            eprintln!("t-dat-monitor: {events}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut failed = false;
    if let Some(report) = &swept {
        match write_sweep(&mut out, report) {
            Ok(any_failed) => failed = any_failed,
            Err(e) => {
                eprintln!("t-dat-monitor: {events}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(mut set) = set else {
        if out.flush().is_err() {
            return ExitCode::FAILURE;
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    };

    let mut output = WatchOutput {
        out: &mut out,
        skip,
    };
    let mut monitor = Monitor::new(config);
    let status = drive(&mut monitor, &mut set, &mut output);
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

/// Writes a swept corpus's events, each file's in file-name order
/// after the stream's `meta` line, and reports each file that failed;
/// `Ok(true)` when any did.
fn write_sweep(out: &mut impl Write, report: &SweepReport) -> std::io::Result<bool> {
    for outcome in &report.outcomes {
        match &outcome.result {
            Ok(events) => {
                for event in events {
                    writeln!(out, "{}", event.to_json())?;
                }
            }
            Err(e) => eprintln!("t-dat-monitor: sweep: {}: {e}", outcome.file.display()),
        }
    }
    eprintln!(
        "t-dat-monitor: swept {} file(s), {} failed",
        report.outcomes.len(),
        report.failed()
    );
    Ok(report.failed() > 0)
}

/// Where the event stream goes after its `meta` line, plus the resume
/// bookkeeping: `skip` output lines are suppressed (they are already in
/// the file from the previous incarnation).
struct WatchOutput<'a> {
    out: &'a mut Box<dyn Write>,
    skip: u64,
}

/// Readies the events file at `path` for a resumed watch over the
/// sources `names`: the number of event lines after its `meta` line,
/// or `None` when it holds no complete line yet (missing, empty, or
/// torn inside the `meta` line). A torn trailing partial line a crash
/// may have left mid-write is truncated. A file whose first line is not
/// a `meta` line naming exactly `names` is refused and left as it is.
fn prepare_resume(path: &str, names: &[Arc<str>]) -> Result<Option<u64>, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let keep = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(i) => i + 1,
        None => 0,
    };
    if keep > 0 {
        let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        check_meta(first, names).map_err(|e| format!("{path}: {e}; refusing to resume into it"))?;
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

/// Checks that `line` is the `meta` line of a watch over `names`, in
/// order.
fn check_meta(line: &[u8], names: &[Arc<str>]) -> Result<(), String> {
    let meta = std::str::from_utf8(line)
        .ok()
        .and_then(|text| json::parse(text).ok());
    let field = |key: &str| meta.as_ref().and_then(|m| m.get(key));
    let theirs: Option<Vec<&str>> = field("sources")
        .and_then(JsonValue::as_arr)
        .and_then(|sources| sources.iter().map(JsonValue::as_str).collect());
    let theirs = match theirs {
        Some(theirs)
            if field("type").and_then(JsonValue::as_str) == Some("meta")
                && field("schema").and_then(JsonValue::as_str) == Some("tdat-monitor-events/2") =>
        {
            theirs
        }
        _ => {
            return Err(
                "the first line is not a tdat-monitor-events/2 meta line (an older \
                        single-source stream, or not an events file)"
                    .to_string(),
            )
        }
    };
    let ours: Vec<&str> = names.iter().map(|n| &**n).collect();
    if theirs != ours {
        return Err(format!(
            "its meta line names sources {theirs:?}, this watch has {ours:?}"
        ));
    }
    Ok(())
}

/// The streaming main loop: [`Monitor::run_set`]'s loop with the
/// events written out after every step that can produce them.
/// Per-source failures are logged and the loop keeps going; transient
/// outages surface as down/up pairs while the set resurrects the
/// source.
fn drive(
    monitor: &mut Monitor,
    set: &mut SourceSet,
    output: &mut WatchOutput<'_>,
) -> Result<(), String> {
    let ids = monitor.register_set(set);
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
    }
    monitor.finish();
    write_events(monitor, output)?;
    output.out.flush().map_err(|e| e.to_string())
}

fn write_events(monitor: &mut Monitor, output: &mut WatchOutput<'_>) -> Result<(), String> {
    for event in monitor.drain_events() {
        if output.skip > 0 {
            // Replaying into a resumed file: this line is already there.
            output.skip -= 1;
            continue;
        }
        writeln!(output.out, "{}", event.to_json()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value {value:?}"))
}

/// Parses a number of seconds for `flag` as a [`Duration`]: negative,
/// non-finite and overflowing values are refused, and so is zero (or a
/// value that rounds to it) unless `zero_ok`.
fn seconds(value: &str, flag: &str, zero_ok: bool) -> Result<Duration, String> {
    let secs: f64 = parse(value, flag)?;
    match Duration::try_from_secs_f64(secs) {
        Ok(d) if zero_ok || !d.is_zero() => Ok(d),
        _ => Err(format!(
            "{flag} must be a {} finite number, not {value:?}",
            if zero_ok { "non-negative" } else { "positive" }
        )),
    }
}

/// Parses a number of seconds for `flag` as a span of trace time:
/// refused as [`seconds`] refuses a zero, and also when it rounds to no
/// microsecond or to more than trace time holds.
fn trace_seconds(value: &str, flag: &str) -> Result<Micros, String> {
    let micros = (seconds(value, flag, false)?.as_nanos() + 500) / 1_000;
    match i64::try_from(micros) {
        Ok(micros) if micros > 0 => Ok(Micros(micros)),
        _ => Err(format!(
            "{flag} must be at least 1 µs and at most {} s, not {value:?}",
            i64::MAX / 1_000_000
        )),
    }
}

fn usage(message: &str) -> ExitCode {
    if !message.is_empty() {
        eprintln!("t-dat-monitor: {message}");
    }
    eprintln!(
        "usage: t-dat-monitor [--follow <pcap>]... [--sim <{SCENARIO_USAGE}>]... \
         [--sweep <dir> [--jobs N]] [--exit-idle SECS] [--stale SECS] \
         [--routes N] [--seed S] [--pace F] \
         [--window SECS] [--interval SECS] [--events PATH] \
         [--resume] [--faults SPEC] [--fault-seed N]"
    );
    ExitCode::from(2)
}
