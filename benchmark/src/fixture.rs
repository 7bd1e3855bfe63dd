//! The model geometry and engine configuration every workload shares — the
//! BENCH_serving one (`d = 32`, `max_seq = 20`, Exact precision, engine
//! defaults apart from `max_seq`/`top_k`), so numbers connect to the
//! CHANGES.md trajectory.

use crate::harness::{median, percentile, Outcome, Timeline, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_core::{SeqFm, SeqFmConfig};
use seqfm_data::{FeatureLayout, PAD};
use seqfm_serve::{CacheStats, EngineConfig, ScoreResponse};

pub const D: usize = 32;
pub const MAX_SEQ: usize = 20;
pub const TOP_K: usize = 10;

/// Command-line options of one workload run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `--smoke`: checks on, reference values off.
    pub smoke: bool,
}

/// The RNG stream `stream` of `seed`: model init, traffic and probes draw
/// from separate streams so resizing one does not shift the others.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seqfm_parallel::shard_seed(seed, stream))
}

pub const STREAM_MODEL: u64 = 0;
pub const STREAM_TRAFFIC: u64 = 1;
pub const STREAM_PROBE: u64 = 2;

pub fn model_cfg() -> SeqFmConfig {
    SeqFmConfig { d: D, max_seq: MAX_SEQ, ..Default::default() }
}

pub fn build_model(seed: u64, layout: &FeatureLayout) -> (SeqFm, ParamStore) {
    let mut ps = ParamStore::new();
    let model = SeqFm::new(&mut ps, &mut rng(seed, STREAM_MODEL), layout, model_cfg());
    (model, ps)
}

pub fn engine_cfg() -> EngineConfig {
    EngineConfig::builder().max_seq(MAX_SEQ).top_k(TOP_K).build().expect("valid engine config")
}

/// One timed window: caller-visible latencies and the completion timeline.
pub struct Phase {
    pub lat_us: Vec<f64>,
    pub timeline: Timeline,
}

impl Phase {
    /// `work_per_sample`: the ops between two recorded completions.
    pub fn start(capacity: usize, work_per_sample: f64) -> Self {
        Phase {
            lat_us: crate::harness::touched(capacity, f64::NAN),
            timeline: Timeline::start(capacity, work_per_sample),
        }
    }
}

/// Runs the timed part. Untraced (`--trace 0`) it is one window of
/// `opts.seconds`. Traced, the same stream runs half the time without spans
/// and half with, so the run carries its own tracing overhead. Returns the
/// untraced window and, on traced runs, the traced one.
pub fn run_windows(
    opts: &Opts,
    tracer: &mut Tracer,
    mut timed: impl FnMut(f64, &mut Tracer) -> Phase,
) -> (Phase, Option<Phase>) {
    if !opts.trace {
        return (timed(opts.seconds, tracer), None);
    }
    tracer.set_enabled(false);
    let untraced = timed(opts.seconds / 2.0, tracer);
    tracer.set_enabled(true);
    let root = tracer.begin("workload", u32::MAX);
    let traced = timed(opts.seconds / 2.0, tracer);
    tracer.end(root);
    (untraced, Some(traced))
}

/// Fills the end-to-end throughput/latency metrics from the untraced window
/// and, on traced runs, `bench.trace_overhead_share`.
pub fn summarise(out: &mut Outcome, mut untraced: Phase, traced: Option<Phase>) {
    let mut rates = untraced.timeline.segment_rates();
    out.ops_per_s = median(&mut rates);
    out.notes.push(format!(
        "segment rates {:.1} … {:.1} 1/s over {} segments",
        rates.first().copied().unwrap_or(f64::NAN),
        rates.last().copied().unwrap_or(f64::NAN),
        rates.len()
    ));
    out.op_p50_us = median(&mut untraced.lat_us);
    if let Some(mut t) = traced {
        let traced_p50 = median(&mut t.lat_us);
        out.layer("bench.trace_overhead_share", (traced_p50 - out.op_p50_us) / out.op_p50_us);
        out.notes.push(format!(
            "op_p50_us untraced {:.2} (n={}) traced {:.2} (n={})",
            out.op_p50_us,
            untraced.lat_us.len(),
            traced_p50,
            t.lat_us.len()
        ));
    }
}

/// Same epoch, same ranking, same logit bits.
pub fn same_bits(a: &ScoreResponse, b: &ScoreResponse) -> bool {
    a.epoch == b.epoch
        && a.ranked.len() == b.ranked.len()
        && a.ranked
            .iter()
            .zip(&b.ranked)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

/// The canonical dynamic row of a stored history: its last `MAX_SEQ` items,
/// left-padded — what the engine feeds `history_view`.
pub fn padded_row(history: &[u32]) -> Vec<i64> {
    let window = &history[history.len() - history.len().min(MAX_SEQ)..];
    let mut row = vec![PAD; MAX_SEQ - window.len()];
    row.extend(window.iter().map(|&item| item as i64));
    row
}

/// `serve.request_p99_us` / `serve.request_n` over both windows of a traced
/// run, and `serve.cache.hit_ratio` from the `Engine::cache_stats()` delta
/// across them.
pub fn request_tail_and_hit_ratio(
    out: &mut Outcome,
    untraced: &Phase,
    traced: Option<&Phase>,
    cache: (CacheStats, CacheStats),
) {
    let mut all = untraced.lat_us.clone();
    all.extend(traced.iter().flat_map(|t| t.lat_us.iter().copied()));
    out.layer("serve.request_p99_us", percentile(&mut all, 0.99));
    out.layer("serve.request_n", all.len() as f64);
    let (before, after) = cache;
    let (hits, misses) = ((after.hits - before.hits) as f64, (after.misses - before.misses) as f64);
    out.layer("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
}
