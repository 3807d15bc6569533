//! The fuzz corpus's anomaly table as a golden: what `anomaly-summary
//! --seed 1` prints, byte for byte, is checked in as
//! `tests/golden/anomaly-summary.txt`.
//!
//! The table counts, per damage class and per pipeline (batch,
//! streaming, follow), the connections, quarantines, degraded sessions
//! and capture anomalies the readers report, so a change to what the
//! lossy reader detects — its duplicate signature, its checksum, its
//! resync — shows here to the digit.
//!
//! On a mismatch the test writes the actual output under
//! `CARGO_TARGET_TMPDIR/golden/fuzz/` and names the first differing
//! line. A golden changes only by copying that file over it, in a
//! commit that says why the output had to change.

use std::path::Path;
use std::process::Command;

/// Compares `actual` with the golden `name`, byte for byte; on a
/// mismatch, writes `actual` out and fails naming the first differing
/// line.
fn assert_golden(name: &str, actual: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let expected = std::fs::read_to_string(golden.join(name)).unwrap_or_default();
    if actual == expected {
        return;
    }
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden/fuzz");
    std::fs::create_dir_all(&written).expect("create the actual-output directory");
    let written = written.join(name);
    std::fs::write(&written, actual).expect("write the actual output");
    let (want, got): (Vec<_>, Vec<_>) = (expected.lines().collect(), actual.lines().collect());
    let line = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    panic!(
        "{name}: first difference at line {}\n  golden: {:?}\n  actual: {:?}\n  \
         actual output written to {}",
        line + 1,
        want.get(line),
        got.get(line),
        written.display()
    );
}

#[test]
fn anomaly_summary_replays_its_golden() {
    let run = Command::new(env!("CARGO_BIN_EXE_anomaly-summary"))
        .args(["--seed", "1"])
        .output()
        .expect("spawn anomaly-summary");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 table");
    assert!(
        run.status.success(),
        "anomaly-summary --seed 1 failed:\n{stdout}"
    );
    assert_golden("anomaly-summary.txt", &stdout);
}
