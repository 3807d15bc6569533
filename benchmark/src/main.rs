//! The repository's benchmark; see `benchmark/README.md`.
//!
//! `tdat-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! prints, as the last line of standard output, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod corpus;
mod host;
mod trace;
mod uses;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use corpus::{Manifest, Workload};
use host::{pass_factor, Yardstick};

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

const USAGE: &str =
    "usage: tdat-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale F]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks the corpora; exists for the smoke test only.
    pub scale: f64,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale) = (1, 10.0, false, 1.0);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = parse(&flag, &value)?,
            "--seconds" => seconds = parse(&flag, &value)?,
            "--trace" => trace = parse::<u8>(&flag, &value)? != 0,
            "--scale" => scale = parse(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Where a run's files go: `benchmark/out/<workload>` under the current
/// directory, which the contract makes the root of the checkout.
pub fn out_dir(workload: &Workload) -> PathBuf {
    PathBuf::from("benchmark/out").join(workload.name)
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run found: operations attempted and failed, and its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A pass timed between two yardstick readings.
#[derive(Clone, Copy)]
pub struct TimedPass {
    pub raw_s: f64,
    /// Host factor of the pass: mean of the readings around it.
    pub factor: f64,
}

/// Runs `f` timed; `yard` is the reading taken just before, and is
/// replaced by the one taken just after.
pub fn timed<T>(yard: &mut Yardstick, f: impl FnOnce() -> T) -> (T, TimedPass) {
    let started = Instant::now();
    let out = f();
    let raw_s = started.elapsed().as_secs_f64();
    let after = Yardstick::measure();
    let factor = pass_factor(*yard, after);
    *yard = after;
    (out, TimedPass { raw_s, factor })
}

/// Median wall time of `passes`, and median yardstick time (each wall
/// time divided by its own host factor).
fn medians(passes: &[TimedPass]) -> (f64, f64) {
    let raw: Vec<f64> = passes.iter().map(|p| p.raw_s).collect();
    let yardstick: Vec<f64> = passes.iter().map(|p| p.raw_s / p.factor).collect();
    (median(&raw), median(&yardstick))
}

/// Generates the workload `setups` times (same seed, same files);
/// returns the manifest and the timed set-ups.
pub fn set_up(args: &Args, setups: usize) -> (Manifest, Vec<TimedPass>) {
    let dir = out_dir(&args.workload);
    let mut yard = Yardstick::measure();
    let mut passes = Vec::new();
    let mut manifest = None;
    for _ in 0..setups {
        let (m, pass) = timed(&mut yard, || {
            args.workload.generate(args.seed, args.scale, &dir)
        });
        passes.push(pass);
        manifest = Some(m);
    }
    (manifest.expect("at least one set-up"), passes)
}

/// The untraced run: set-ups, round 0, then timed rounds of
/// yardstick, batch, yardstick, watch, yardstick.
fn run_end_to_end(args: &Args) -> Outcome {
    let (manifest, setups) = set_up(args, SETUPS);
    let sessions = manifest.sessions.len() as u64;
    eprintln!(
        "{}: {sessions} sessions, {} frames, {} bytes",
        args.workload.name, manifest.frames, manifest.bytes
    );
    let mut failed = 0;
    let mut passes = 0;

    // Round 0, untimed: warms caches, counts allocations, and fixes the
    // reference outputs.
    let (mut batch_ref, mut watch_ref) = (String::new(), String::new());
    let (batch_failed, batch_heap) =
        host::counted(|| uses::batch_pass(&manifest, uses::batch_options(1, 0), &mut batch_ref));
    let (watch, watch_heap) =
        host::counted(|| uses::watch_pass(&args.workload, &manifest, 1, &mut watch_ref));
    failed += batch_failed + watch.failed;
    passes += 2;
    let batch_digest = uses::digest(batch_ref.as_bytes());
    let watch_digest = uses::digest(watch_ref.as_bytes());
    drop((batch_ref, watch_ref));

    let (mut batch, mut watch, mut tick) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut yard = Yardstick::measure();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        // Alternate which use runs first, so neither always inherits
        // the other's heap.
        for use_batch in [round % 2 == 0, round % 2 != 0] {
            let mut out = String::new();
            if use_batch {
                let (bad, pass) = timed(&mut yard, || {
                    uses::batch_pass(&manifest, uses::batch_options(1, 0), &mut out)
                });
                eprintln!(
                    "round {round} batch {:.3} s, host factor {:.3}",
                    pass.raw_s, pass.factor
                );
                failed += if uses::digest(out.as_bytes()) == batch_digest {
                    bad
                } else {
                    sessions
                };
                batch.push(pass);
            } else {
                let (stats, pass) = timed(&mut yard, || {
                    uses::watch_pass(&args.workload, &manifest, 1, &mut out)
                });
                eprintln!(
                    "round {round} watch {:.3} s, host factor {:.3}, {} ticks of {:.3} ms",
                    pass.raw_s, pass.factor, stats.ticks, stats.tick_mean_ms
                );
                failed += if uses::digest(out.as_bytes()) == watch_digest {
                    stats.failed
                } else {
                    sessions
                };
                watch.push(pass);
                // The tick clock as a pass of its own, under the watch
                // pass's host factor.
                tick.push(TimedPass {
                    raw_s: stats.tick_mean_ms,
                    ..pass
                });
            }
            passes += 1;
        }
        round += 1;
    }

    let kframes = manifest.frames as f64 / 1e3;
    let (setup, batch, watch, tick) = (
        medians(&setups),
        medians(&batch),
        medians(&watch),
        medians(&tick),
    );
    // The same four timings without the yardstick, for `calibrate.sh`.
    for (name, unit, value) in [
        ("raw.setup_s", "s", setup.0),
        ("raw.batch_kframes_per_s", "kframes/s", kframes / batch.0),
        ("raw.watch_kframes_per_s", "kframes/s", kframes / watch.0),
        ("raw.tick_mean_ms", "ms", tick.0),
    ] {
        eprintln!("{name:<32} {value:>14.4} {unit}");
    }
    let peak = batch_heap.peak_bytes.max(watch_heap.peak_bytes);
    Outcome {
        attempted: sessions * passes,
        failed,
        metrics: vec![
            metric("setup_s", "s", setup.1),
            metric("batch_kframes_per_s", "kframes/s", kframes / batch.1),
            metric("watch_kframes_per_s", "kframes/s", kframes / watch.1),
            metric("tick_mean_ms", "ms", tick.1),
            metric("peak_heap_mib", "MiB", peak as f64 / (1024.0 * 1024.0)),
        ],
    }
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tdat-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        trace::run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    for m in &outcome.metrics {
        eprintln!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
