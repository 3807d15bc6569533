//! Directory sweep: batch-drain a capture corpus in parallel.
//!
//! Follow mode watches feeds that are still growing; a sweep instead
//! takes a directory of *finished* captures (a day of rotated collector
//! output, a regression corpus) and produces every file's full event
//! stream in one run. Files are analyzed independently — each gets its
//! own [`Monitor`] with a single-source [`SourceSet`] in static-drain
//! mode — so the work parallelizes perfectly across worker threads,
//! and the merged report is simply the per-file streams concatenated in
//! file-name order: deterministic regardless of worker scheduling.
//!
//! One unreadable or damaged file fails only its own
//! [`SweepOutcome`]; the sweep itself keeps going.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::engine::{Monitor, MonitorConfig, MonitorEvent};
use crate::set::{SourceSet, SourceSpec};

/// The result of sweeping one capture file.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The capture file.
    pub file: PathBuf,
    /// The source name its events are attributed to (the file name).
    pub source: String,
    /// Frames ingested from the file.
    pub frames: u64,
    /// Connections finalized (every connection: a finished capture
    /// finalizes all of them).
    pub connections: u64,
    /// The file's full event stream, or why it could not be opened.
    pub result: Result<Vec<MonitorEvent>, String>,
}

/// The merged result of a directory sweep: one [`SweepOutcome`] per
/// capture file, in file-name order.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-file outcomes, in file-name order.
    pub outcomes: Vec<SweepOutcome>,
}

impl SweepReport {
    /// Files that produced an event stream.
    pub fn succeeded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Files that could not be opened or drained.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.succeeded()
    }

    /// The merged event stream: every successful file's events,
    /// concatenated in file-name order.
    pub fn events(&self) -> impl Iterator<Item = &MonitorEvent> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .flatten()
    }
}

/// Lists the capture files (`*.pcap`, `*.cap`) directly inside `dir`,
/// sorted by file name for a deterministic work list.
fn capture_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        let is_capture = path.is_file()
            && path
                .extension()
                .is_some_and(|ext| ext == "pcap" || ext == "cap");
        if is_capture {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Sweeps one file: a dedicated monitor drains it through a
/// single-source set in static mode (idle clock armed at open with a
/// zero budget, so a fully-written file finishes on the first empty
/// poll).
fn sweep_one(path: &Path, config: &MonitorConfig) -> SweepOutcome {
    let spec = SourceSpec::follow(path)
        .with_exit_idle(Duration::ZERO)
        .with_idle_from_open();
    let source = spec.label();
    let set = SourceSet::builder().source(spec).build();
    let (frames, connections, result) = match set {
        Ok(mut set) => {
            let mut monitor = Monitor::new(config.clone());
            let events = monitor.run_set(&mut set);
            (
                monitor.metrics().frames(),
                monitor.metrics().connections_finalized(),
                Ok(events),
            )
        }
        Err(error) => (0, 0, Err(error)),
    };
    SweepOutcome {
        file: path.to_path_buf(),
        source,
        frames,
        connections,
        result,
    }
}

/// Drains every capture file directly inside `dir` across `jobs`
/// worker threads (0 picks the machine's parallelism) and merges the
/// outcomes in file-name order.
///
/// # Errors
///
/// Fails when the directory cannot be read or holds no capture files;
/// per-file problems land in that file's [`SweepOutcome`] instead.
pub fn sweep_directory(
    dir: impl AsRef<Path>,
    config: &MonitorConfig,
    jobs: usize,
) -> Result<SweepReport, String> {
    let dir = dir.as_ref();
    let files = capture_files(dir)?;
    if files.is_empty() {
        return Err(format!(
            "no capture files (*.pcap, *.cap) in {}",
            dir.display()
        ));
    }
    let workers = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    }
    .min(files.len());

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<SweepOutcome>>> =
        Mutex::new((0..files.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(path) = files.get(i) else { break };
                let outcome = sweep_one(path, config);
                if let Ok(mut slots) = slots.lock() {
                    if let Some(slot) = slots.get_mut(i) {
                        *slot = Some(outcome);
                    }
                }
            });
        }
    });

    let outcomes: Vec<SweepOutcome> = slots
        .into_inner()
        .map_err(|_| "a sweep worker panicked".to_string())?
        .into_iter()
        .flatten()
        .collect();
    if outcomes.len() != files.len() {
        return Err("a sweep worker panicked".to_string());
    }
    Ok(SweepReport { outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_directory_fails() {
        let err = sweep_directory("/nonexistent/sweep-dir", &MonitorConfig::default(), 1)
            .expect_err("missing dir");
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn empty_directory_fails_with_a_clear_message() {
        let dir = std::env::temp_dir().join("tdat-sweep-empty-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let err = sweep_directory(&dir, &MonitorConfig::default(), 1).expect_err("no captures");
        assert!(err.contains("no capture files"), "{err}");
    }
}
