//! Report-store timing rows, machine-readable.
//!
//! The store is outside the repository benchmark's scope
//! (`benchmark/README.md`, "Layers"), so its three rows live here:
//! sealing a 10k-session synthetic corpus into columnar segments, and
//! rollup / filtered-scan query latency against the sealed snapshot.
//!
//! ```text
//! cargo run -p tdat-bench --release --bin bench-json -- --out BENCH_store.json
//! ```
//!
//! `--quick` takes 3 samples in place of 7. The rows are recorded, not
//! gated: the exit status says only whether the run completed. Every
//! speed number for the capture path comes from the command in
//! `BENCHMARK.json`. The JSON schema is documented in `EXPERIMENTS.md`.

use std::time::{Duration, Instant};

const SCHEMA: &str = "tdat-bench-json/1";

/// Returns the output path and the sample count.
fn parse_args() -> (String, usize) {
    let mut out = "BENCH_pr.json".to_string();
    let mut samples = 7;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out takes a path"),
            "--quick" => samples = 3,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    (out, samples)
}

/// Runs `work` once as warm-up, then `samples` times; returns the
/// median of the durations it reports, in nanoseconds. `work` clocks
/// its own timed section so setup stays off the clock.
fn measure(samples: usize, mut work: impl FnMut() -> Duration) -> u64 {
    work();
    let mut times: Vec<u64> = (0..samples).map(|_| work().as_nanos() as u64).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() {
    let (out, samples) = parse_args();

    // Corpus generation and store setup stay off the clock.
    let store_dir = std::env::temp_dir().join(format!("tdat-bench-store-{}", std::process::id()));
    let ingest_dir =
        std::env::temp_dir().join(format!("tdat-bench-store-ingest-{}", std::process::id()));
    let corpus = tdat_store::synth::synth_records(10_000, 1);
    std::fs::remove_dir_all(&store_dir).ok();
    let query_store = tdat_store::Store::create(&store_dir).expect("create bench store");
    query_store
        .ingest(corpus.clone())
        .expect("seal bench corpus");
    let snapshot = query_store.snapshot();
    let rollup =
        tdat_store::Query::parse("group by peer_as,bucket bucket 1h agg count,mean_duration_s")
            .expect("rollup query parses");
    let scan = tdat_store::Query::parse("where verdict = quarantined order by duration_s desc")
        .expect("scan query parses");

    let mut results: Vec<(&str, u64)> = Vec::new();
    let mut run = |name: &'static str, work: &mut dyn FnMut() -> Duration| {
        let median = measure(samples, work);
        eprintln!("{name:<28} {:>10.3} ms", median as f64 / 1e6);
        results.push((name, median));
    };
    run("store_ingest_10k", &mut || {
        std::fs::remove_dir_all(&ingest_dir).ok();
        let store = tdat_store::Store::create(&ingest_dir).expect("create bench store");
        let records = corpus.clone();
        let start = Instant::now();
        store.ingest(records).expect("seal bench corpus");
        start.elapsed()
    });
    run("store_query_rollup_10k", &mut || {
        let start = Instant::now();
        std::hint::black_box(rollup.run(&snapshot));
        start.elapsed()
    });
    run("store_query_scan_10k", &mut || {
        let start = Instant::now();
        std::hint::black_box(scan.run(&snapshot));
        start.elapsed()
    });
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&ingest_dir).ok();

    let mut json = format!(
        "{{\n  \"schema\": \"{}\",\n  \"samples\": {samples},\n  \"benches\": {{\n",
        tdat::json::escape(SCHEMA)
    );
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{}\": {{\"median_ns\": {ns}}}{comma}\n",
            tdat::json::escape(name)
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out, &json).expect("write results json");
    eprintln!("wrote {out}");
}
