//! CLI driving every experiment: `experiments <id>|all [--scale S]
//! [--routes N] [--seed N]` (defaults: scale 1.0, 12 000 routes, seed
//! 2026).
//!
//! Outputs are printed and written to `bench_results/<id>.txt`; the
//! checked-in files are `all` at the defaults, and CI fails when a
//! change moves them.

use std::fs;
use std::path::Path;
use std::time::Instant;

use tdat_bench::experiments::{self, ExperimentCtx};

const CORPUS_EXPERIMENTS: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "table2",
    "fig14",
    "table4",
    "fig16",
    "table5",
    "fig17",
    "ablation_major_threshold",
    "ablation_loss_threshold",
];
const STANDALONE_EXPERIMENTS: &[&str] = &[
    "table3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig13",
    "fig15",
    "ablation_ack_shift",
    "ablation_window_threshold",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = 1.0f64;
    let mut routes = 12_000usize;
    let mut seed = 2_026u64;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => scale = it.next().expect("--scale S").parse().expect("scale"),
            "--routes" => routes = it.next().expect("--routes N").parse().expect("routes"),
            "--seed" => seed = it.next().expect("--seed N").parse().expect("seed"),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = CORPUS_EXPERIMENTS
            .iter()
            .chain(STANDALONE_EXPERIMENTS)
            .map(|s| s.to_string())
            .collect();
    }

    let out_dir = Path::new("bench_results");
    fs::create_dir_all(out_dir).expect("create bench_results/");

    let needs_corpus = ids.iter().any(|i| CORPUS_EXPERIMENTS.contains(&i.as_str()));
    let ctx = if needs_corpus {
        eprintln!("generating corpus (scale {scale}, {routes} routes/table, seed {seed})...");
        let t0 = Instant::now();
        let ctx = ExperimentCtx::build(seed, scale, routes);
        eprintln!(
            "corpus: {} transfers analyzed in {:.1}s",
            ctx.corpus.transfers.len(),
            t0.elapsed().as_secs_f64()
        );
        Some(ctx)
    } else {
        None
    };

    for id in &ids {
        let t0 = Instant::now();
        let report = match id.as_str() {
            "table1" => experiments::table1(ctx.as_ref().expect("corpus")),
            "fig3" => experiments::fig3(ctx.as_ref().expect("corpus")),
            "fig4" => experiments::fig4(ctx.as_ref().expect("corpus")),
            "table2" => experiments::table2(ctx.as_ref().expect("corpus")),
            "table3" => experiments::table3(),
            "fig5" => experiments::fig5(),
            "fig6" => experiments::fig6(),
            "fig7" => experiments::fig7(),
            "fig8" => experiments::fig8(),
            "fig9" => experiments::fig9(),
            "fig11" => experiments::fig11(),
            "fig13" => experiments::fig13(),
            "fig14" => experiments::fig14(ctx.as_ref().expect("corpus")),
            "table4" => experiments::table4(ctx.as_ref().expect("corpus")),
            "fig15" => experiments::fig15(),
            "fig16" => experiments::fig16(ctx.as_ref().expect("corpus")),
            "table5" => experiments::table5(ctx.as_ref().expect("corpus")),
            "fig17" => experiments::fig17(ctx.as_ref().expect("corpus")),
            "ablation_ack_shift" => experiments::ablation_ack_shift(),
            "ablation_window_threshold" => experiments::ablation_window_threshold(),
            "ablation_major_threshold" => {
                experiments::ablation_major_threshold(ctx.as_ref().expect("corpus"))
            }
            "ablation_loss_threshold" => {
                experiments::ablation_loss_threshold(ctx.as_ref().expect("corpus"))
            }
            other => {
                eprintln!("unknown experiment {other}; known: {CORPUS_EXPERIMENTS:?} {STANDALONE_EXPERIMENTS:?}");
                std::process::exit(2);
            }
        };
        let path = out_dir.join(format!("{id}.txt"));
        fs::write(&path, &report).expect("write report");
        // Wall-clock time goes to stderr so stdout, like the files, is a
        // pure function of the arguments.
        eprintln!("{id}: {:.1}s", t0.elapsed().as_secs_f64());
        println!("==== {id} ====\n{report}");
    }
}
