//! Runs the differential-oracle sweep and reports accuracy.
//!
//! ```text
//! t-dat-oracle [--seed N] [--filter SUBSTR] [--artifact PATH] [--chaos]
//! ```
//!
//! Exits 0 when every acceptance threshold holds, 1 otherwise; the
//! summary (per-scenario scores plus the aggregated loss-location
//! confusion matrix) goes to stdout and, with `--artifact`, to a file
//! for CI upload. With `--chaos`, every clean scenario selected is
//! additionally re-run through seeded sniffer-side damage (survivable
//! and poison presets) and the quarantine contract is enforced; the
//! documented chaos run is `--seed 1 --filter clean --chaos`, whose
//! scenarios are long enough for the presets' damage rates.

use std::process::ExitCode;

use tdat_oracle::{
    evaluate, evaluate_chaos, render, render_chaos, run_chaos_axis, run_scenario, scenario_matrix,
    Thresholds,
};

fn main() -> ExitCode {
    let mut seed = 1u64;
    let mut filter: Option<String> = None;
    let mut artifact: Option<String> = None;
    let mut chaos = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed needs an integer"),
            },
            "--filter" => match args.next() {
                Some(v) => filter = Some(v),
                None => return usage("--filter needs a substring"),
            },
            "--artifact" => match args.next() {
                Some(v) => artifact = Some(v),
                None => return usage("--artifact needs a path"),
            },
            "--chaos" => chaos = true,
            "--help" | "-h" => {
                println!(
                    "usage: t-dat-oracle [--seed N] [--filter SUBSTR] [--artifact PATH] [--chaos]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let scenarios: Vec<_> = scenario_matrix(seed)
        .into_iter()
        .filter(|s| filter.as_deref().is_none_or(|f| s.name.contains(f)))
        .collect();
    if scenarios.is_empty() {
        return usage("filter matched no scenarios");
    }

    let mut reports = Vec::with_capacity(scenarios.len());
    for sc in &scenarios {
        eprintln!("running {} ...", sc.name);
        reports.push(run_scenario(sc));
    }

    let mut failures = evaluate(&reports, &Thresholds::default());
    let mut summary = render(&reports, &failures);
    if chaos {
        eprintln!("running chaos axis ...");
        let chaos_reports = run_chaos_axis(&scenarios);
        let chaos_failures = evaluate_chaos(&chaos_reports);
        summary.push_str(&render_chaos(&chaos_reports, &chaos_failures));
        failures.extend(chaos_failures);
    }
    print!("{summary}");
    if let Some(path) = artifact {
        if let Err(e) = std::fs::write(&path, &summary) {
            eprintln!("t-dat-oracle: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("t-dat-oracle: {msg}");
    eprintln!("usage: t-dat-oracle [--seed N] [--filter SUBSTR] [--artifact PATH] [--chaos]");
    ExitCode::FAILURE
}
