//! `bgpsim` — synthesize BGP table-transfer pcap traces.
//!
//! ```text
//! bgpsim <scenario> [-o out.pcap] [--routes N] [--seed S] [--rtt-ms MS]
//!
//! scenarios:
//!   clean           unimpeded transfer
//!   timer[:MS]      quota-timer-paced sender (default 200 ms)
//!   slow[:RATE]     overloaded collector (bytes/s, default 40000)
//!   smallwin        16 kB receiver window (RouteViews style)
//!   uploss[:P]      random upstream loss (default 0.02)
//!   burst           receiver-local drop burst mid-transfer
//!   zwbug           zero-window-probe discard bug under load
//!   peergroup       collector failure blocks its whole peer group
//! ```
//!
//! The output is a standard pcap, ready for `t-dat`, wireshark, or any
//! other tool. The scenario vocabulary is shared with `t-dat-monitor
//! --sim` (see [`tdat_tcpsim::scenario::build_scenario`]).

use std::process::ExitCode;

use tdat_packet::write_pcap_file;
use tdat_tcpsim::scenario::{build_scenario, ScenarioOptions, SCENARIO_USAGE};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut scenario: Option<String> = None;
    let mut out = String::from("bgpsim.pcap");
    let mut opts = ScenarioOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" | "--out" => match args.next() {
                Some(v) => out = v,
                None => return usage(),
            },
            "--routes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.routes = v,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return usage(),
            },
            "--rtt-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.rtt_ms = v,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other if scenario.is_none() => scenario = Some(other.to_string()),
            _ => return usage(),
        }
    }
    let Some(scenario) = scenario else {
        return usage();
    };

    let mut built = match build_scenario(&scenario, &opts) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bgpsim: {e}");
            return usage();
        }
    };
    built.sim.run(built.horizon);
    let sim_out = built.sim.into_output();
    let frames = &sim_out.taps[0].1;
    if let Err(e) = write_pcap_file(&out, frames.iter()) {
        eprintln!("bgpsim: {out}: {e}");
        return ExitCode::FAILURE;
    }
    let report = &sim_out.connections[0];
    println!(
        "{out}: {} frames, {} update bytes, transfer completed at {}",
        frames.len(),
        report.stream_len,
        report
            .archive
            .last_time()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".to_string()),
    );
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bgpsim <{SCENARIO_USAGE}> \
         [-o out.pcap] [--routes N] [--seed S] [--rtt-ms MS]"
    );
    ExitCode::from(2)
}
