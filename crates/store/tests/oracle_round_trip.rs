//! Round-trip identity across the full oracle scenario matrix.
//!
//! Every scenario in the deterministic oracle matrix is simulated to a
//! capture, analyzed into reports, serialized onto each ingest surface
//! (batch report lines and `tdat-monitor-events/2` JSONL), and
//! ingested into one store. The store must hand back every report
//! **bit-exactly** — `Report::to_json` strings compare equal — both
//! from the live snapshot and after reopening the directory cold.

use std::collections::BTreeMap;

use tdat::{Report, StreamAnalyzer};
use tdat_oracle::{scenario_capture, scenario_matrix};
use tdat_store::{JsonlIngester, Query, Store};

/// Simulates every scenario and returns its analyzed reports, fanned
/// out over worker threads so the debug-build sweep stays fast.
fn matrix_reports() -> Vec<(String, Vec<Report>)> {
    let matrix = scenario_matrix(1);
    assert!(
        matrix.len() >= 31,
        "expected the full oracle matrix, got {} scenarios",
        matrix.len()
    );
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(matrix.len());
    let work = std::sync::Mutex::new(matrix.into_iter().enumerate().collect::<Vec<_>>());
    let done = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let item = work.lock().unwrap().pop();
                let Some((index, sc)) = item else { break };
                let frames = scenario_capture(&sc);
                let engine = StreamAnalyzer::default();
                let reports: Vec<Report> = engine
                    .analyze_frames(&frames)
                    .iter()
                    .map(|a| Report::from_analysis(a, engine.analyzer().config()))
                    .collect();
                assert!(
                    !reports.is_empty(),
                    "scenario {} produced no analyzable connection",
                    sc.name
                );
                done.lock().unwrap().push((index, sc.name.clone(), reports));
            });
        }
    });
    let mut out = done.into_inner().unwrap();
    out.sort_by_key(|(index, _, _)| *index);
    out.into_iter()
        .map(|(_, name, reports)| (name, reports))
        .collect()
}

/// Renders a monitor `connection` event line for `report`, attributed
/// to `source`.
fn connection_line(report: &Report, at_s: f64, source: &str) -> String {
    format!(
        "{{\"type\":\"connection\",\"source\":\"{source}\",\"at_s\":{at_s},\
         \"session\":\"{}->{}\",\"report\":{}}}",
        report.sender,
        report.receiver,
        report.to_json()
    )
}

#[test]
fn full_matrix_round_trips_bit_exactly_on_every_surface() {
    let per_scenario = matrix_reports();
    let total: usize = per_scenario.iter().map(|(_, r)| r.len()).sum();

    // Serialize the same corpus onto both ingest surfaces.
    let mut batch = String::new();
    let mut v2 = String::from(
        "{\"type\":\"meta\",\"schema\":\"tdat-monitor-events/2\",\"sources\":[\"oracle-v2\"]}\n",
    );
    let mut at_s = 100.0;
    for (_, reports) in &per_scenario {
        for report in reports {
            batch.push_str(&report.to_json());
            batch.push('\n');
            v2.push_str(&connection_line(report, at_s, "oracle-v2"));
            v2.push('\n');
            at_s += 17.0;
        }
    }

    let dir = tempdir("round-trip");
    let store = Store::create(&dir).expect("create store");
    for (source, text) in [("oracle-batch", &batch), ("oracle-v2", &v2)] {
        let mut ingester = JsonlIngester::new(source);
        let records = ingester.text(text).expect("ingest surface");
        assert_eq!(records.len(), total, "{source}: record count");
        store.ingest(records).expect("seal segment");
    }

    let expected: Vec<String> = per_scenario
        .iter()
        .flat_map(|(_, reports)| reports.iter().map(Report::to_json))
        .collect();
    assert_identity(&store, total, &expected);

    // A compacted store and a cold reopen must both preserve identity.
    store.compact().expect("compact");
    assert_identity(&store, total, &expected);
    drop(store);
    let reopened = Store::open(&dir).expect("reopen store");
    assert_identity(&reopened, total, &expected);

    std::fs::remove_dir_all(&dir).ok();
}

/// Asserts each ingest surface holds exactly `total` records whose
/// reports render back to the original JSON, and that a rollup query
/// sees the same corpus.
fn assert_identity(store: &Store, total: usize, expected: &[String]) {
    let mut sorted_expected = expected.to_vec();
    sorted_expected.sort();
    let snapshot = store.snapshot();
    let mut by_source: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for segment in &snapshot.segments {
        for record in &segment.records {
            by_source
                .entry(record.source.clone())
                .or_default()
                .push(record.report.to_json());
        }
    }
    assert_eq!(
        by_source.keys().cloned().collect::<Vec<_>>(),
        ["oracle-batch", "oracle-v2"],
        "sources present in the store"
    );
    for (source, mut rendered) in by_source {
        assert_eq!(rendered.len(), total, "{source}: stored record count");
        rendered.sort();
        assert_eq!(
            rendered, sorted_expected,
            "{source}: bit-exact report identity"
        );
    }

    let rollup = Query::parse("group by source agg count")
        .expect("parse rollup")
        .run(&snapshot);
    assert_eq!(rollup.lines.len(), 2, "one rollup row per surface");
    for line in &rollup.lines {
        assert!(
            line.ends_with(&format!("\"count\":{total}}}")),
            "rollup row counts the full corpus: {line}"
        );
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tdat-store-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
