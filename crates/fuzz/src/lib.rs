//! Offline fuzz/chaos corpus harness for the T-DAT capture pipelines.
//!
//! Registry-based fuzzers (`cargo-fuzz`) need network access and a
//! nightly toolchain; this harness gets the same class of coverage
//! hermetically. One *golden* capture — a seeded simulator run of a
//! clean BGP table transfer — is mutated by [`apply_chaos`] into a
//! corpus spanning every sniffer-damage class (record truncation,
//! snaplen clipping, byte corruption, record duplication, reordering,
//! clock jumps, and a mixed "poison" blend). Each corpus entry is then
//! driven through all three consumption pipelines:
//!
//! * **batch** — [`StreamAnalyzer::analyze_pcap_lossy`] over the file;
//! * **streaming** — [`StreamAnalyzer::analyze_lossy_with`] over an
//!   in-memory reader;
//! * **follow** — the live monitor tailing the file via
//!   [`FollowSource`](tdat_monitor::FollowSource).
//!
//! Three invariants are enforced on every run, for every damage class:
//!
//! 1. **Never panic.** Damaged bytes degrade or quarantine; they never
//!    abort the process (the harness itself is the panic detector).
//! 2. **Quarantines are sealed, honestly.** Every quarantined
//!    connection carries a non-empty typed reason, and a connection
//!    whose attributed anomaly count exceeds the default budget is
//!    never labeled anything milder than quarantined.
//! 3. **The two kept-message types agree.** Reassembled once into the
//!    flat message log the pipelines read and once into whole decoded
//!    messages, every stream of the capture yields the same byte
//!    accounting and the same messages ([`run_kept_types`]).
//!
//! The `anomaly-summary` binary runs the full corpus and emits the
//! per-class outcome table CI uploads as an artifact; its seed-1 table
//! is checked in as `tests/golden/anomaly-summary.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use tdat::{Analysis, StreamAnalyzer, Verdict};
use tdat_bgp::{TableGenerator, WholeMessages};
use tdat_monitor::{Monitor, MonitorConfig, MonitorEvent, SourceSet, SourceSpec};
use tdat_packet::{FrameLike, LossyReader, TcpFrame};
use tdat_pcap2bgp::StreamExtractor;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{apply_chaos, ChaosSpec, ChaosStats, Simulation};
use tdat_timeset::Micros;

/// Every damage class the corpus must cover. The first six are pure
/// single-class mutations; `poison` blends them all at high rates.
pub const DAMAGE_CLASSES: [&str; 7] = [
    "truncate",
    "clip",
    "corrupt",
    "duplicate",
    "reorder",
    "clock-jump",
    "poison",
];

/// The chaos spec exercising one damage class at the given seed.
///
/// # Panics
///
/// Panics on a class name outside [`DAMAGE_CLASSES`].
pub fn spec_for(class: &str, seed: u64) -> ChaosSpec {
    let mut spec = ChaosSpec::quiet(seed);
    spec.max_events = None;
    match class {
        "truncate" => spec.truncate = 0.01,
        "clip" => spec.clip = 0.05,
        "corrupt" => spec.corrupt = 0.02,
        "duplicate" => spec.duplicate = 0.05,
        "reorder" => spec.reorder = 0.02,
        "clock-jump" => spec.clock_jump = 0.01,
        "poison" => return ChaosSpec::poison(seed),
        other => panic!("unknown damage class {other:?}"),
    }
    spec
}

/// The golden capture: a clean, seeded simulator run of one BGP table
/// transfer, taken at the sniffer. Built once per process.
pub fn golden_frames() -> &'static [TcpFrame] {
    static FRAMES: OnceLock<Vec<TcpFrame>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let table = TableGenerator::new(7).routes(20_000).generate();
        let topo = monitoring_topology(1, TopologyOptions::default());
        let spec = transfer_spec(&topo, 0, table.to_update_stream());
        let mut sim = Simulation::new(topo.net);
        sim.add_connection(spec);
        sim.run(Micros::from_secs(600));
        let mut out = sim.into_output();
        let frames = out.taps.remove(0).1;
        assert!(
            frames.len() > 100,
            "golden transfer produced only {} frames",
            frames.len()
        );
        frames
    })
}

/// One mutated capture of the corpus.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Damage class (one of [`DAMAGE_CLASSES`]).
    pub class: &'static str,
    /// Chaos seed the mutation used.
    pub seed: u64,
    /// The damaged pcap bytes (global header always intact).
    pub bytes: Vec<u8>,
    /// What the chaos engine actually injected.
    pub injected: ChaosStats,
}

/// Builds one corpus entry for a damage class.
pub fn mutate(class: &'static str, seed: u64) -> CorpusEntry {
    let (bytes, injected) = apply_chaos(golden_frames(), &spec_for(class, seed));
    CorpusEntry {
        class,
        seed,
        bytes,
        injected,
    }
}

/// The fixed-seed corpus: one mutated capture per damage class, every
/// seed derived deterministically from `base_seed`.
pub fn corpus(base_seed: u64) -> Vec<CorpusEntry> {
    DAMAGE_CLASSES
        .iter()
        .enumerate()
        .map(|(i, class)| {
            mutate(
                class,
                base_seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64),
            )
        })
        .collect()
}

/// What one pipeline made of one damaged capture.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineOutcome {
    /// Connections the pipeline reported.
    pub connections: usize,
    /// Of those, quarantined ones.
    pub quarantined: usize,
    /// Of those, degraded (damage within budget) ones.
    pub degraded: usize,
    /// Capture anomalies the run survived.
    pub anomalies: u64,
}

/// Checks the quarantine contract on one analysis, panicking (= fuzz
/// failure) on a violation.
fn check_analysis(context: &str, a: &Analysis) {
    if a.verdict.is_quarantined() {
        let reason = a.verdict.reason().unwrap_or("");
        assert!(
            !reason.is_empty(),
            "{context}: quarantined connection without a typed reason"
        );
    }
    let budget = Verdict::MAX_ANOMALIES;
    if a.anomalies.total() > budget {
        assert!(
            a.verdict.is_quarantined(),
            "{context}: {} attributed anomalies (budget {budget}) but verdict is {}",
            a.anomalies.total(),
            a.verdict.as_str()
        );
    }
}

fn tally(analyses: &[Analysis], anomalies: u64) -> PipelineOutcome {
    PipelineOutcome {
        connections: analyses.len(),
        quarantined: analyses
            .iter()
            .filter(|a| a.verdict.is_quarantined())
            .count(),
        degraded: analyses
            .iter()
            .filter(|a| a.verdict.as_str() == "degraded")
            .count(),
        anomalies,
    }
}

/// A unique scratch path for one pipeline run.
fn temp_path(tag: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let n = SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tdat-fuzz-{}-{tag}-{n}.pcap", std::process::id()))
}

/// Drives the batch pipeline (whole-file lossy analysis) over one
/// damaged capture.
///
/// # Panics
///
/// Panics when the pipeline violates the quarantine contract — that is
/// the harness's detection mechanism.
pub fn run_batch(entry: &CorpusEntry) -> PipelineOutcome {
    let path = temp_path(&format!("batch-{}", entry.class));
    std::fs::write(&path, &entry.bytes).expect("scratch pcap is writable");
    let result = StreamAnalyzer::new(Default::default()).analyze_pcap_lossy(&path);
    let _ = std::fs::remove_file(&path);
    let (analyses, report) = result.expect("lossy batch analysis survives in-stream damage");
    for a in &analyses {
        check_analysis(&format!("batch/{}", entry.class), a);
    }
    tally(&analyses, report.counts.total())
}

/// Drives the streaming pipeline (incremental per-connection lossy
/// ingestion) over one damaged capture, fully in memory.
///
/// # Panics
///
/// Panics when the pipeline violates the quarantine contract.
pub fn run_streaming(entry: &CorpusEntry) -> PipelineOutcome {
    let reader = LossyReader::new(entry.bytes.as_slice())
        .expect("chaos mutations keep the global header intact");
    let mut analyses = Vec::new();
    let report = StreamAnalyzer::new(Default::default())
        .analyze_lossy_with(reader, |a| analyses.push(a))
        .expect("lossy streaming analysis survives in-stream damage");
    for a in &analyses {
        check_analysis(&format!("streaming/{}", entry.class), a);
    }
    tally(&analyses, report.counts.total())
}

/// Drives the follow-mode pipeline (live monitor tailing the file) over
/// one damaged capture.
///
/// # Panics
///
/// Panics when the pipeline violates the quarantine contract.
pub fn run_follow(entry: &CorpusEntry) -> PipelineOutcome {
    let path = temp_path(&format!("follow-{}", entry.class));
    std::fs::write(&path, &entry.bytes).expect("scratch pcap is writable");
    let spec = SourceSpec::follow(&path)
        .with_exit_idle(Duration::ZERO)
        .with_idle_from_open();
    let mut set = SourceSet::builder()
        .source(spec)
        .build()
        .expect("follow source opens the scratch capture");
    let mut monitor = Monitor::new(MonitorConfig::default());
    let events = monitor.run_set(&mut set);
    let _ = std::fs::remove_file(&path);
    // The lossy decoder's whole contract is that in-stream damage
    // degrades, never kills: a SourceDown here is a contract breach.
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, MonitorEvent::SourceDown(_))),
        "follow/{}: in-stream damage killed the source: {:?}",
        entry.class,
        set.failures()
    );

    let mut outcome = PipelineOutcome {
        anomalies: monitor.metrics().capture_anomalies(),
        ..PipelineOutcome::default()
    };
    let budget = Verdict::MAX_ANOMALIES;
    for event in &events {
        let MonitorEvent::Connection(summary) = event else {
            continue;
        };
        outcome.connections += 1;
        let report = &summary.report;
        match &*report.verdict {
            "quarantined" => {
                outcome.quarantined += 1;
                assert!(
                    report
                        .quarantine_reason
                        .as_deref()
                        .is_some_and(|r| !r.is_empty()),
                    "follow/{}: quarantined connection without a typed reason",
                    entry.class
                );
            }
            "degraded" => outcome.degraded += 1,
            _ => {
                assert!(
                    report.capture_anomalies <= budget,
                    "follow/{}: {} attributed anomalies (budget {budget}) but verdict is {}",
                    entry.class,
                    report.capture_anomalies,
                    report.verdict
                );
            }
        }
    }
    outcome
}

/// Reassembles every TCP stream of one damaged capture twice — into
/// the [`MessageLog`](tdat_bgp::MessageLog) the pipelines read and into
/// [`WholeMessages`] — and holds the two to the same `unparsed_bytes`,
/// `duplicate_bytes` and `overflow_bytes` and the same message times,
/// type codes and prefixes. Returns the messages compared.
///
/// # Panics
///
/// Panics when the skim decoder and `BgpMessage::decode` part ways on
/// any stream.
pub fn run_kept_types(entry: &CorpusEntry) -> usize {
    let mut reader = LossyReader::new(entry.bytes.as_slice())
        .expect("chaos mutations keep the global header intact");
    type BothKinds = (StreamExtractor, StreamExtractor<WholeMessages>);
    let mut streams: HashMap<_, BothKinds> = HashMap::new();
    while let Some(lossy) = reader
        .next_lossy_view()
        .expect("lossy decode survives in-stream damage")
    {
        let Some(frame) = &lossy.frame else { continue };
        let (log, whole) = streams.entry((frame.src(), frame.dst())).or_default();
        let tcp = frame.tcp();
        log.push(frame.timestamp(), tcp.seq, tcp.flags, frame.payload());
        whole.push(frame.timestamp(), tcp.seq, tcp.flags, frame.payload());
    }
    let mut messages = 0;
    for ((src, dst), (log, whole)) in streams {
        let whole = whole.finish();
        assert_eq!(
            log.finish(),
            whole.to_log(),
            "kept-types/{}: {src:?} -> {dst:?}",
            entry.class
        );
        messages += whole.messages.len();
    }
    messages
}

/// Runs one corpus entry through all three pipelines, returning the
/// outcomes as `(batch, streaming, follow)`, and through
/// [`run_kept_types`].
pub fn run_all(entry: &CorpusEntry) -> (PipelineOutcome, PipelineOutcome, PipelineOutcome) {
    run_kept_types(entry);
    (run_batch(entry), run_streaming(entry), run_follow(entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The golden capture as undamaged pcap bytes.
    fn golden_pcap() -> Vec<u8> {
        apply_chaos(golden_frames(), &ChaosSpec::quiet(0)).0
    }

    #[test]
    fn corpus_covers_every_damage_class_with_real_damage() {
        let corpus = corpus(1);
        assert_eq!(corpus.len(), DAMAGE_CLASSES.len());
        assert!(corpus.len() >= 6, "acceptance floor: six damage classes");
        for entry in &corpus {
            assert!(
                entry.injected.total() > 0,
                "{}: the mutation injected nothing",
                entry.class
            );
            assert_ne!(
                entry.bytes,
                golden_pcap(),
                "{}: mutated bytes identical to the golden capture",
                entry.class
            );
        }
    }

    #[test]
    fn undamaged_golden_capture_is_clean_everywhere() {
        let entry = CorpusEntry {
            class: "golden",
            seed: 0,
            bytes: golden_pcap(),
            injected: ChaosStats::default(),
        };
        let (batch, streaming, follow) = run_all(&entry);
        for (name, o) in [
            ("batch", batch),
            ("streaming", streaming),
            ("follow", follow),
        ] {
            assert!(o.connections >= 1, "{name}: golden connection reported");
            assert_eq!(o.quarantined, 0, "{name}: clean capture quarantined");
            assert_eq!(o.anomalies, 0, "{name}: clean capture grew anomalies");
        }
        // The kept-types comparison has something to compare.
        assert!(run_kept_types(&entry) > 1_000);
    }

    /// The acceptance gate: the fixed-seed corpus (all damage classes)
    /// runs every pipeline without panicking, and quarantine verdicts
    /// are sealed with typed reasons throughout.
    #[test]
    fn fixed_seed_corpus_survives_all_three_pipelines() {
        for entry in corpus(1) {
            let (batch, streaming, follow) = run_all(&entry);
            // Batch and streaming consume identical bytes through the
            // same decode path: their anomaly tallies must agree.
            assert_eq!(
                batch.anomalies, streaming.anomalies,
                "{}: batch and streaming disagree on anomaly count",
                entry.class
            );
            // Heavy mixed damage must actually trip the quarantine in
            // at least one pipeline — otherwise the harness is vacuous.
            if entry.class == "poison" {
                assert!(
                    streaming.quarantined > 0,
                    "poison corpus entry quarantined nothing"
                );
                assert!(follow.quarantined > 0 || follow.connections == 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random seeds over random damage classes: the streaming
        /// pipeline (the shared decode path) never panics and never
        /// leaves an over-budget connection unsealed.
        #[test]
        fn random_mutations_never_break_the_quarantine_contract(
            seed in any::<u64>(),
            class_ix in 0usize..DAMAGE_CLASSES.len(),
        ) {
            let entry = mutate(DAMAGE_CLASSES[class_ix], seed);
            let _ = run_streaming(&entry);
            let _ = run_kept_types(&entry);
        }
    }
}
