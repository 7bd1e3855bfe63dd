//! Serving-path benchmarks: graph-free `FrozenSeqFm::score` vs. building an
//! autograd `Graph` per request, engine throughput at 1 and 4 worker
//! threads, and the batch-coalescing engine on a shared-history workload.
//!
//! Besides the criterion groups, this bench writes `BENCH_serving.json` at
//! the repository root (requests/sec single-/4-thread/coalesced, p50
//! latencies, frozen-vs-graph speedup) so the serving-performance
//! trajectory is recorded PR over PR:
//!
//! ```text
//! cargo bench -p seqfm-bench --bench serving
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_core::{FrozenSeqFm, GraphScorer, Scorer, ScorerPrecision, Scratch, SeqFm, SeqFmConfig};
use seqfm_data::{Batch, FeatureLayout};
use seqfm_serve::{expand_request, Engine, EngineConfig, ScoreRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

const D: usize = 32;
const MAX_SEQ: usize = 20;
const CANDIDATES: usize = 100;

fn layout() -> FeatureLayout {
    FeatureLayout { n_users: 200, n_items: 500 }
}

fn build_model() -> (SeqFm, ParamStore) {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = SeqFmConfig { d: D, max_seq: MAX_SEQ, ..Default::default() };
    let model = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
    (model, ps)
}

fn request(i: usize, l: &FeatureLayout) -> ScoreRequest {
    ScoreRequest::inline(
        (i % l.n_users) as u32,
        (0..MAX_SEQ).map(|j| ((i * 7 + j) % l.n_items) as u32).collect::<Vec<u32>>(),
        (0..CANDIDATES).map(|c| ((c * 3 + i) % l.n_items) as u32).collect::<Vec<u32>>(),
    )
}

/// Candidates per request in the coalescing workload. Deliberately
/// **small**: within one large request the frozen fast path already
/// amortises the history, so coalescing pays off exactly where ROADMAP
/// predicted — many small same-history requests (a hot user / trending
/// slate hammered by concurrent callers), where the per-request dynamic
/// view and dispatch round trip dominate the per-candidate work.
const COALESCE_CANDIDATES: usize = 8;

/// The coalescing workload: one hot user/history hit by a burst of small
/// candidate-set requests — the shape the engine's same-`(user, history)`
/// grouping turns into cross-request super-batches.
fn shared_history_request(i: usize, l: &FeatureLayout) -> ScoreRequest {
    ScoreRequest::inline(
        7,
        (0..MAX_SEQ).map(|j| ((j * 11) % l.n_items) as u32).collect::<Vec<u32>>(),
        (0..COALESCE_CANDIDATES).map(|c| ((c * 3 + i) % l.n_items) as u32).collect::<Vec<u32>>(),
    )
}

fn engine_cfg(threads: usize, coalesce_max: usize) -> EngineConfig {
    EngineConfig::builder()
        .threads(threads)
        .max_seq(MAX_SEQ)
        .top_k(10)
        .queue_capacity(1024)
        .coalesce_max(coalesce_max)
        .build()
        .expect("valid config")
}

/// Users in the stateful (stored-history) scenario. Small enough that the
/// round-robin re-visits every user several times per measurement — the
/// view-cache's steady state — and far under `cache_entries`.
const STORED_USERS: usize = 64;

/// The per-user history the stateful scenario stores (and the inline
/// baseline carries on every request).
fn user_history(u: usize, l: &FeatureLayout) -> Vec<u32> {
    (0..MAX_SEQ).map(|j| ((u * 7 + j) % l.n_items) as u32).collect()
}

/// Candidate slate for stateful-scenario request `i` (same shape as the
/// classic workload's slates).
fn stored_candidates(i: usize, l: &FeatureLayout) -> Vec<u32> {
    (0..CANDIDATES).map(|c| ((c * 3 + i) % l.n_items) as u32).collect()
}

fn request_batch(l: &FeatureLayout) -> Batch {
    expand_request(&request(0, l), l, MAX_SEQ).expect("valid request")
}

/// Criterion: single-request scoring latency, frozen vs. graph-per-request.
fn bench_single_request(c: &mut Criterion) {
    let l = layout();
    let batch = request_batch(&l);
    let (model, ps) = build_model();
    let frozen = FrozenSeqFm::freeze(&model, &ps);
    let frozen_fast = FrozenSeqFm::freeze(&model, &ps).with_precision(ScorerPrecision::Fast);
    let graph = GraphScorer::new(model, ps);

    let mut group = c.benchmark_group(format!("serve_1req_{CANDIDATES}cand_d{D}"));
    group.sample_size(20);
    let mut scratch = Scratch::new();
    group.bench_function("frozen", |b| {
        b.iter(|| std::hint::black_box(frozen.score(&batch, &mut scratch)[0]));
    });
    group.bench_function("frozen_fast", |b| {
        b.iter(|| std::hint::black_box(frozen_fast.score(&batch, &mut scratch)[0]));
    });
    group.bench_function("graph_per_request", |b| {
        b.iter(|| std::hint::black_box(graph.score(&batch, &mut scratch)[0]));
    });
    group.finish();
}

/// Criterion: engine round-trip throughput at 1 and 4 worker threads
/// (per-request dispatch: coalescing off).
fn bench_engine_throughput(c: &mut Criterion) {
    let l = layout();
    let (model, ps) = build_model();
    let frozen = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let requests: Vec<ScoreRequest> = (0..64).map(|i| request(i, &l)).collect();

    let mut group = c.benchmark_group("serve_engine_64req");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let engine =
            Engine::new(Arc::clone(&frozen), l, engine_cfg(threads, 1)).expect("valid config");
        group.bench_function(format!("{threads}thread"), |b| {
            b.iter(|| {
                let pending: Vec<_> = requests
                    .iter()
                    .map(|r| engine.submit(r.clone()).expect("under capacity"))
                    .collect();
                for p in pending {
                    p.wait().expect("valid request");
                }
            });
        });
    }
    group.finish();
}

/// Criterion: the coalescing scenario — a shared-history burst through one
/// worker, per-request dispatch vs. coalesced super-batches.
fn bench_engine_coalescing(c: &mut Criterion) {
    let l = layout();
    let (model, ps) = build_model();
    let frozen = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let requests: Vec<ScoreRequest> = (0..64).map(|i| shared_history_request(i, &l)).collect();

    let mut group = c.benchmark_group("serve_engine_coalesce_64req_shared_history");
    group.sample_size(10);
    for coalesce_max in [1usize, 16] {
        let engine =
            Engine::new(Arc::clone(&frozen), l, engine_cfg(1, coalesce_max)).expect("valid config");
        group.bench_function(format!("coalesce{coalesce_max}"), |b| {
            b.iter(|| {
                let pending: Vec<_> = requests
                    .iter()
                    .map(|r| engine.submit(r.clone()).expect("under capacity"))
                    .collect();
                for p in pending {
                    p.wait().expect("valid request");
                }
            });
        });
    }
    group.finish();
}

fn median(durations: &mut [Duration]) -> Duration {
    durations.sort_unstable();
    durations[durations.len() / 2]
}

/// Hand-timed measurements persisted to `BENCH_serving.json`.
///
/// Skipped when a benchmark filter is passed (`cargo bench --bench serving
/// -- frozen`): iterating on one criterion group should neither pay for the
/// full measurement sweep nor overwrite the recorded numbers with a partial
/// run.
fn emit_serving_json(_c: &mut Criterion) {
    if std::env::args().skip(1).any(|a| !a.starts_with('-')) {
        println!("benchmark filter given — skipping BENCH_serving.json emission");
        return;
    }
    let l = layout();
    let batch = request_batch(&l);
    let (model, ps) = build_model();
    let frozen_shared = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let frozen = Arc::clone(&frozen_shared);
    let frozen_fast = FrozenSeqFm::freeze(&model, &ps).with_precision(ScorerPrecision::Fast);
    let graph = GraphScorer::new(model, ps);
    let mut scratch = Scratch::new();

    let p50_of = |f: &mut dyn FnMut(), iters: usize| -> Duration {
        for _ in 0..10 {
            f(); // warm-up
        }
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            f();
            samples.push(t.elapsed());
        }
        median(&mut samples)
    };
    let frozen_p50 = p50_of(
        &mut || {
            std::hint::black_box(frozen.score(&batch, &mut scratch)[0]);
        },
        200,
    );
    let frozen_fast_p50 = p50_of(
        &mut || {
            std::hint::black_box(frozen_fast.score(&batch, &mut scratch)[0]);
        },
        200,
    );
    let graph_p50 = p50_of(
        &mut || {
            std::hint::black_box(graph.score(&batch, &mut scratch)[0]);
        },
        60,
    );
    let speedup = graph_p50.as_secs_f64() / frozen_p50.as_secs_f64();
    let fast_speedup = frozen_p50.as_secs_f64() / frozen_fast_p50.as_secs_f64();
    // Host-speed canary: a fixed, deterministic chunk of scalar FMA work,
    // timed the same way as the latencies above. Absolute latencies in this
    // file are only comparable between records taken on comparably fast
    // hosts; when two records disagree, compare their `calib_spin_us` first
    // — a 2× swing there means the host changed, not the code.
    let calib_spin = p50_of(
        &mut || {
            let mut acc = 0.0f32;
            let mut x = 1.000_000_1f32;
            for _ in 0..2_000_000u32 {
                acc = x.mul_add(1.000_000_1, acc);
                x = std::hint::black_box(x);
            }
            std::hint::black_box(acc);
        },
        30,
    );

    let n = 256usize;
    let run = |engine: &Engine, req_of: &dyn Fn(usize) -> ScoreRequest| -> f64 {
        // Warm the workers' scratches (and the slot free list) first.
        for i in 0..engine.threads() * 2 {
            engine.score(req_of(i)).expect("valid request");
        }
        let t = Instant::now();
        let pending: Vec<_> =
            (0..n).map(|i| engine.submit(req_of(i)).expect("under capacity")).collect();
        for p in pending {
            p.wait().expect("valid request");
        }
        n as f64 / t.elapsed().as_secs_f64()
    };
    // Distinct-history workload, per-request dispatch (the PR-over-PR
    // engine baseline).
    let rps_at = |threads: usize| -> f64 {
        let engine =
            Engine::new(Arc::clone(&frozen_shared), l, engine_cfg(threads, 1)).expect("valid");
        run(&engine, &|i| request(i, &l))
    };
    let rps1 = rps_at(1);
    let rps4 = rps_at(4);
    // The coalescing scenario: a shared-history burst of small requests
    // through ONE worker, coalescing off vs. on — the off number isolates
    // what batching at admission buys, independent of threads or workload
    // shape. (Same requests, same worker count; only `coalesce_max`
    // changes.)
    let rps_shared_at = |coalesce_max: usize| -> f64 {
        let engine =
            Engine::new(Arc::clone(&frozen_shared), l, engine_cfg(1, coalesce_max)).expect("valid");
        run(&engine, &|i| shared_history_request(i, &l))
    };
    let rps_coalesce_off = rps_shared_at(1);
    let rps_coalesced = rps_shared_at(32);
    // The stateful scenario: the same traffic twice — once as stored
    // `(user, candidates)` requests against a warmed store (view cache
    // hot after the first visit per user), once with the identical
    // histories inlined in every request. One worker, coalescing off, so
    // the delta isolates what the store + view cache buy per request.
    let stored_engine =
        Engine::new(Arc::clone(&frozen_shared), l, engine_cfg(1, 1)).expect("valid");
    let n_append = STORED_USERS * MAX_SEQ;
    let t = Instant::now();
    for u in 0..STORED_USERS {
        for item in user_history(u, &l) {
            stored_engine.append_event(u as u32, item).expect("valid ids");
        }
    }
    let store_append_rps = n_append as f64 / t.elapsed().as_secs_f64();
    let rps_stored_cached = run(&stored_engine, &|i| {
        ScoreRequest::stored((i % STORED_USERS) as u32, stored_candidates(i % 8, &l))
    });
    let cache_stats = stored_engine.cache_stats();
    let inline_engine =
        Engine::new(Arc::clone(&frozen_shared), l, engine_cfg(1, 1)).expect("valid");
    let rps_stored_inline = run(&inline_engine, &|i| {
        ScoreRequest::inline(
            (i % STORED_USERS) as u32,
            user_history(i % STORED_USERS, &l),
            stored_candidates(i % 8, &l),
        )
    });
    // Scaling numbers are only meaningful relative to the host: a 1-CPU
    // container physically cannot show multi-thread speedup.
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"config\": {{ \"d\": {D}, \"max_seq\": {MAX_SEQ}, \"candidates_per_request\": {CANDIDATES}, \"engine_requests\": 256, \"coalesce_max\": 32, \"coalesce_candidates_per_request\": {COALESCE_CANDIDATES}, \"stored_users\": {STORED_USERS} }},\n  \"host_cpus\": {host_cpus},\n  \"calib_spin_us\": {:.1},\n  \"frozen_p50_latency_us\": {:.1},\n  \"frozen_fast_p50_latency_us\": {:.1},\n  \"frozen_fast_vs_exact_speedup\": {:.2},\n  \"graph_p50_latency_us\": {:.1},\n  \"frozen_vs_graph_speedup\": {:.2},\n  \"engine_rps_1_thread\": {:.0},\n  \"engine_rps_4_threads\": {:.0},\n  \"engine_rps_coalesce_off\": {:.0},\n  \"engine_rps_coalesced\": {:.0},\n  \"engine_rps_stored_cached\": {:.0},\n  \"engine_rps_stored_inline_baseline\": {:.0},\n  \"view_cache_hit_rate\": {:.3},\n  \"store_append_rps\": {:.0}\n}}\n",
        calib_spin.as_secs_f64() * 1e6,
        frozen_p50.as_secs_f64() * 1e6,
        frozen_fast_p50.as_secs_f64() * 1e6,
        fast_speedup,
        graph_p50.as_secs_f64() * 1e6,
        speedup,
        rps1,
        rps4,
        rps_coalesce_off,
        rps_coalesced,
        rps_stored_cached,
        rps_stored_inline,
        cache_stats.hit_rate(),
        store_append_rps,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(path, &json).expect("write BENCH_serving.json");
    println!("== BENCH_serving.json ==\n{json}");
}

criterion_group!(
    benches,
    bench_single_request,
    bench_engine_throughput,
    bench_engine_coalescing,
    emit_serving_json
);
criterion_main!(benches);
