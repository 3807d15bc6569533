//! `bgpsim`'s scenario parameters are range-checked: a value that
//! parses but means nothing the simulator can run is refused like a
//! malformed one — usage on stderr, exit 2, no capture written.

use std::path::PathBuf;
use std::process::Command;

/// Runs `bgpsim <scenario>` into a scratch file and expects the refusal
/// that names `what`.
fn refused(scenario: &str, what: &str) {
    let out = std::env::temp_dir().join(format!(
        "tdat-bgpsim-cli-{}-{}.pcap",
        std::process::id(),
        scenario.replace(':', "-")
    ));
    std::fs::remove_file(&out).ok();
    let output = Command::new(env!("CARGO_BIN_EXE_bgpsim"))
        .arg(scenario)
        .arg("-o")
        .arg(&out)
        .args(["--routes", "50"])
        .output()
        .expect("spawn bgpsim");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{scenario}: {stderr}");
    let message = format!("bad {what} ");
    assert!(stderr.contains(&message), "{scenario}: {stderr}");
    assert!(stderr.contains("usage:"), "{scenario}: {stderr}");
    assert!(!PathBuf::from(&out).exists(), "{scenario} wrote a capture");
}

#[test]
fn a_zero_timer_is_refused() {
    refused("timer:0", "interval");
}

#[test]
fn a_negative_timer_is_refused() {
    refused("timer:-5", "interval");
}

#[test]
fn a_timer_that_is_not_a_number_is_refused() {
    refused("timer:nan", "interval");
}

#[test]
fn a_loss_probability_past_one_is_refused() {
    refused("uploss:2", "loss probability");
}

#[test]
fn a_negative_rate_is_refused() {
    refused("slow:-1", "rate");
}

#[test]
fn parameters_in_range_still_run() {
    for scenario in ["timer:0.5", "uploss:0", "uploss:1", "slow:1"] {
        let out = std::env::temp_dir().join(format!(
            "tdat-bgpsim-cli-ok-{}-{}.pcap",
            std::process::id(),
            scenario.replace(':', "-")
        ));
        let output = Command::new(env!("CARGO_BIN_EXE_bgpsim"))
            .arg(scenario)
            .arg("-o")
            .arg(&out)
            .args(["--routes", "20"])
            .output()
            .expect("spawn bgpsim");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{scenario}: {stderr}");
        std::fs::remove_file(&out).ok();
    }
}
