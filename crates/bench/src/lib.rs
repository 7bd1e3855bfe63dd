#![warn(missing_docs)]

//! # seqfm-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! section is regenerated by one binary in `src/bin/`, printing the paper's
//! reported numbers next to the measured ones and writing a TSV under
//! `results/`:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_stats` | Table I — dataset statistics |
//! | `table2_ranking` | Table II — HR/NDCG on Gowalla+Foursquare |
//! | `table3_ctr` | Table III — AUC/RMSE on Trivago+Taobao |
//! | `table4_rating` | Table IV — MAE/RRSE on Beauty+Toys |
//! | `table5_ablation` | Table V — SeqFM component ablations |
//! | `fig3_sensitivity` | Fig. 3 — hyperparameter sweeps (d, l, n˙, ρ) |
//! | `fig4_scalability` | Fig. 4 — training time vs data proportion |
//!
//! Four emitters under `benches/` (`cargo bench -p seqfm-bench --bench
//! {kernels,retrieval,serving,training}`) record what the repo benchmark
//! (`benchmark/`) does not measure — same-run kernel ratios, the 1 M-item
//! scan, thread scaling — to `BENCH_*.json`, timed by [`timing`].

pub mod args;
pub mod paper;
pub mod report;
pub mod runner;
pub mod timing;

pub use args::HarnessArgs;
pub use report::{vs, Table};
pub use runner::{default_epochs, run_jobs, run_one, Prepared, ResultRow, Task};
