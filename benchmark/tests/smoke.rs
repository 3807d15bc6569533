//! Smoke test of the benchmark binary (not part of the repository's
//! tier-1 tests): every workload of `BENCHMARK.json` at `--scale 0.05 --seconds 1`, untraced
//! and traced. The result line must parse, report no failed operation,
//! and name exactly the metrics `BENCHMARK.json` lists, in its order.

use std::path::Path;
use std::process::Command;

use tdat::json::{self, JsonValue};

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn listed(bench: &JsonValue, list: &str) -> Vec<(String, String)> {
    let text = |metric: &JsonValue, key: &str| {
        metric
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };
    bench
        .get(list)
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|metric| (text(metric, "name"), text(metric, "unit")))
        .collect()
}

#[test]
fn every_workload_untraced_and_traced() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let bench =
        json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let workloads = bench.get("workloads").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(workloads.len(), 3);
    for workload in workloads {
        let workload = workload.get("name").and_then(JsonValue::as_str).unwrap();
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_tdat-benchmark"))
                .current_dir(root)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "0.05"])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}: {stderr}"
            );
            let stdout = String::from_utf8(output.stdout).unwrap();
            let result = json::parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{stderr}"
            );
            assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() > 0);
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            let JsonValue::Obj(metrics) = result.get("metrics").unwrap() else {
                panic!("metrics is not an object");
            };
            let printed: Vec<(String, String)> = metrics
                .fields()
                .iter()
                .map(|(name, metric)| {
                    assert!(
                        metric
                            .get("value")
                            .and_then(JsonValue::as_f64)
                            .unwrap()
                            .is_finite(),
                        "{name}"
                    );
                    (
                        name.clone(),
                        metric
                            .get("unit")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(printed, listed(&bench, list), "{workload} --trace {trace}");
        }
    }
}
