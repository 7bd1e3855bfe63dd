//! Regenerates **Table III** — the classification task (CTR prediction):
//! AUC and RMSE for all eight models on the Trivago-like and Taobao-like
//! datasets. Paper values are printed in parentheses.

use seqfm_bench::{paper, run_table, HarnessArgs, Task};

fn main() {
    let args = HarnessArgs::parse();
    run_table(&args, Task::Ctr, "Table III — CTR prediction", "table3", paper::TABLE3);
}
