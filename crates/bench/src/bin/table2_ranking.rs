//! Regenerates **Table II** — the ranking task (next-POI recommendation):
//! HR@{5,10,20} and NDCG@{5,10,20} for all eight models on the Gowalla-like
//! and Foursquare-like datasets. Paper values are printed in parentheses.

use seqfm_bench::{paper, run_table, HarnessArgs, Task};

fn main() {
    let args = HarnessArgs::parse();
    run_table(&args, Task::Ranking, "Table II — ranking", "table2", paper::TABLE2);
}
