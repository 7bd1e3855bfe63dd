//! Engine thread scaling: requests/sec through the scoring `Engine` at 1 and
//! 4 worker threads in the same run, written to `BENCH_serving.json` at the
//! repository root:
//!
//! ```text
//! cargo bench -p seqfm-bench --bench serving
//! ```
//!
//! Everything else about serving — frozen-forward latency, `Fast` vs
//! `Exact`, coalescing, the history store and view cache — is measured by
//! the repo benchmark (`benchmark/`, workloads `slate` and `burst`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_bench::timing::{calib_spin_us, host_cpus};
use seqfm_core::{FrozenSeqFm, SeqFm, SeqFmConfig};
use seqfm_data::FeatureLayout;
use seqfm_serve::{Engine, EngineConfig, ScoreRequest};
use std::sync::Arc;
use std::time::Instant;

const D: usize = 32;
const MAX_SEQ: usize = 20;
const CANDIDATES: usize = 100;
const REQUESTS: usize = 256;

fn request(i: usize, l: &FeatureLayout) -> ScoreRequest {
    ScoreRequest::inline(
        (i % l.n_users) as u32,
        (0..MAX_SEQ).map(|j| ((i * 7 + j) % l.n_items) as u32).collect::<Vec<u32>>(),
        (0..CANDIDATES).map(|c| ((c * 3 + i) % l.n_items) as u32).collect::<Vec<u32>>(),
    )
}

/// Requests/sec of `REQUESTS` distinct-history requests submitted at once
/// to an engine with `threads` workers and per-request dispatch.
fn engine_rps(frozen: &Arc<FrozenSeqFm>, l: FeatureLayout, threads: usize) -> f64 {
    let cfg = EngineConfig::builder()
        .threads(threads)
        .max_seq(MAX_SEQ)
        .top_k(10)
        .queue_capacity(1024)
        .coalesce_max(1)
        .build()
        .expect("valid config");
    let engine = Engine::new(Arc::clone(frozen), l, cfg).expect("valid config");
    // Warm the workers' scratches (and the slot free list) first.
    for i in 0..threads * 2 {
        engine.score(request(i, &l)).expect("valid request");
    }
    let t = Instant::now();
    let pending: Vec<_> =
        (0..REQUESTS).map(|i| engine.submit(request(i, &l)).expect("under capacity")).collect();
    for p in pending {
        p.wait().expect("valid request");
    }
    REQUESTS as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    let l = FeatureLayout { n_users: 200, n_items: 500 };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = SeqFmConfig { d: D, max_seq: MAX_SEQ, ..Default::default() };
    let model = SeqFm::new(&mut ps, &mut rng, &l, cfg);
    let frozen = Arc::new(FrozenSeqFm::freeze(&model, &ps));

    let calib_spin = calib_spin_us();
    let rps1 = engine_rps(&frozen, l, 1);
    let rps4 = engine_rps(&frozen, l, 4);
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"config\": {{ \"d\": {D}, \"max_seq\": {MAX_SEQ}, \"candidates_per_request\": {CANDIDATES}, \"engine_requests\": {REQUESTS} }},\n  \"host_cpus\": {host_cpus},\n  \"calib_spin_us\": {calib_spin:.1},\n  \"engine_rps_1_thread\": {rps1:.0},\n  \"engine_rps_4_threads\": {rps4:.0}\n}}\n",
        host_cpus = host_cpus(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(path, &json).expect("write BENCH_serving.json");
    println!("== BENCH_serving.json ==\n{json}");
}
