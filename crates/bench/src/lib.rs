#![warn(missing_docs)]

//! # seqfm-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! section is regenerated by one binary in `src/bin/`, printing the paper's
//! reported numbers next to the measured ones and writing TSVs under the
//! `--out` directory (default `results/`):
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
//! One protocol serves Tables II–V and Fig. 3: [`runner::run_one`] trains
//! a roster model or a SeqFM configuration ([`runner::ModelSpec`]) with
//! best-epoch selection on the validation event and reports its test
//! metrics; [`runner::protocol`] states the split, the candidate sets, the
//! selection rule and the seed. Tables II–IV share [`runner::run_table`];
//! `fig4_scalability` reuses only the trainer config and init seed, since
//! it times a fixed epoch budget.
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
pub use runner::{
    all_datasets, protocol, run_jobs, run_one, run_table, train_config, ModelSpec, Prepared,
    ResultRow, Task, DATASET_COLUMNS,
};
