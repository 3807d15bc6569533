//! Experiment harness regenerating every table and figure of the paper.
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! recorded results. The `experiments` binary drives everything:
//!
//! ```text
//! cargo run -p tdat-bench --release --bin experiments -- all
//! ```
//!
//! The crate's `tests/` hold the cross-crate identity suites
//! (`shard_identity`, `batch_shard_identity`, `zero_copy_identity`,
//! `zero_alloc`). It measures no speed except the report store's three
//! rows (`bench-json`): every capture-path number comes from the
//! repository benchmark, the command in `BENCHMARK.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod experiments;

pub use corpus::{
    generate_transfer, generate_transfer_with, parallel_map, router_profile, Corpus, Dataset,
    RouterProfile, Scenario, Transfer,
};
