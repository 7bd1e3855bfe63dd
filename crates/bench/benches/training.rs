//! Training-path benchmarks: data-parallel minibatch training at 1 and 4
//! workers.
//!
//! Writes `BENCH_training.json` at the repository root: training
//! instances/sec and final loss at `workers = 1` and `workers = 4`, with the
//! host's CPU count so the scaling number can be interpreted and the host
//! canary so records from different hosts can be compared:
//!
//! ```text
//! cargo bench -p seqfm-bench --bench training
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_bench::timing::{calib_spin_us, host_cpus};
use seqfm_core::{train_ranking, SeqFm, SeqFmConfig, TrainConfig};
use seqfm_data::{ranking::RankingConfig, FeatureLayout, LeaveOneOut, NegativeSampler, Scale};

const D: usize = 16;
const MAX_SEQ: usize = 10;
const EPOCHS: usize = 2;

struct Setup {
    split: LeaveOneOut,
    layout: FeatureLayout,
    sampler: NegativeSampler,
    positions: usize,
}

fn setup() -> Setup {
    let mut cfg = RankingConfig::gowalla(Scale::Small);
    cfg.n_users = 64;
    cfg.n_items = 150;
    cfg.min_len = 8;
    cfg.max_len = 16;
    let ds = seqfm_data::ranking::generate(&cfg).expect("generate bench dataset");
    let split = LeaveOneOut::split(&ds);
    let layout = FeatureLayout::of(&ds);
    let seen = (0..ds.n_users).map(|u| split.seen_items(u)).collect();
    let sampler = NegativeSampler::new(ds.n_items, seen);
    let positions = split.train.iter().map(|s| s.len().saturating_sub(1)).sum();
    Setup { split, layout, sampler, positions }
}

fn train_cfg(workers: usize) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: 64,
        lr: 5e-3,
        max_seq: MAX_SEQ,
        seed: 13,
        workers,
        ..Default::default()
    }
}

/// Runs one full training job and returns (instances/sec, final loss).
fn run_once(s: &Setup, workers: usize) -> (f64, f64) {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = SeqFmConfig { d: D, max_seq: MAX_SEQ, ..Default::default() };
    let model = SeqFm::new(&mut ps, &mut rng, &s.layout, cfg);
    let report =
        train_ranking(&model, &mut ps, &s.split, &s.layout, &s.sampler, &train_cfg(workers));
    let instances = (s.positions * report.epoch_losses.len()) as f64;
    (instances / report.seconds.max(1e-9), report.final_loss())
}

fn main() {
    let s = setup();
    // Warm-up (pool spin-up, allocator), then measure.
    let _ = run_once(&s, 1);
    let (ips1, loss1) = run_once(&s, 1);
    let _ = run_once(&s, 4);
    let (ips4, loss4) = run_once(&s, 4);
    let calib_spin = calib_spin_us();

    let json = format!(
        "{{\n  \"bench\": \"training\",\n  \"config\": {{ \"d\": {D}, \"max_seq\": {MAX_SEQ}, \"epochs\": {EPOCHS}, \"positions_per_epoch\": {positions}, \"task\": \"ranking\" }},\n  \"host_cpus\": {host_cpus},\n  \"calib_spin_us\": {calib_spin:.1},\n  \"instances_per_sec_1_worker\": {ips1:.0},\n  \"instances_per_sec_4_workers\": {ips4:.0},\n  \"final_loss_1_worker\": {loss1:.4},\n  \"final_loss_4_workers\": {loss4:.4}\n}}\n",
        positions = s.positions,
        host_cpus = host_cpus(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_training.json");
    std::fs::write(path, &json).expect("write BENCH_training.json");
    println!("== BENCH_training.json ==\n{json}");
}
