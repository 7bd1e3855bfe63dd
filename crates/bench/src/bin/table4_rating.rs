//! Regenerates **Table IV** — the regression task (rating prediction):
//! MAE and RRSE for all eight models on the Beauty-like and Toys-like
//! datasets. Paper values are printed in parentheses.

use seqfm_bench::{paper, run_table, HarnessArgs, Task};

fn main() {
    let args = HarnessArgs::parse();
    run_table(&args, Task::Rating, "Table IV — rating prediction", "table4", paper::TABLE4);
}
