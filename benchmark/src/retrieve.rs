//! `retrieve`: `Engine::retrieve_top_k(user, 100)` over a popularity-skewed
//! catalog, an `append_event` before every 8th query. The full-catalog
//! path: `retrieval` (bound pass, two-phase scan, repair, merge),
//! `core::score_catalog_into` and `parallel::ThreadPool`; no admission
//! queue at all.

use crate::fixture::{self, Opts, Phase, MAX_SEQ};
use crate::harness::{self, Outcome, Tracer};
use crate::layers;
use rand::Rng;
use seqfm_core::{FrozenSeqFm, HistoryView, Scratch};
use seqfm_data::{Batch, FeatureLayout};
use seqfm_serve::{CatalogIndex, Engine, Retrieval};
use std::sync::Arc;

const LAYOUT: FeatureLayout = FeatureLayout { n_users: 256, n_items: 20_000 };
/// The measured optimum of `benches/retrieval.rs`.
const BLOCK: usize = 64;
const K: usize = 100;
const N_QUERIES: usize = 4_096;
const APPEND_EVERY: usize = 2;
const RETAIN_EVERY: usize = 16;
const REPLAY_QUERIES: usize = 16;

struct Fixture {
    frozen: Arc<FrozenSeqFm>,
    engine: Engine,
    users: Vec<u32>,
    /// The item appended before query `i` when `i` is a multiple of `APPEND_EVERY`.
    items: Vec<u32>,
}

/// The catalog model is the same at every `--seed` (histories, queries and
/// appends are what the seed draws): how much of the catalog the bound can
/// prune depends on the model's weights, and a model drawn per seed moved
/// `op_p50_us` between 126 and 200 ms on a quiet host — seed noise of the
/// size of the regressions this workload exists to catch.
const MODEL_SEED: u64 = 17;

/// The `benches/retrieval.rs` skew: item linear weights reshaped into a hot
/// head and a long tail (`2 − 24·√rank-fraction`), the catalog regime in
/// which the upper-bound prune fires at all.
fn skewed_model() -> Arc<FrozenSeqFm> {
    let (model, mut ps) = fixture::build_model(MODEL_SEED, &LAYOUT);
    let id = ps.id_of("seqfm.w_static.table").expect("item linear table");
    let w = ps.value_mut(id).data_mut();
    for c in 0..LAYOUT.n_items {
        let r = (c as f32 + 1.0) / LAYOUT.n_items as f32;
        w[LAYOUT.n_users + c] = 2.0 - 24.0 * r.sqrt();
    }
    Arc::new(FrozenSeqFm::freeze(&model, &ps))
}

/// Model build, freeze, index build, engine start, store warm, and four
/// warm-up queries (which seed the index's scan statistics).
fn setup(seed: u64) -> Fixture {
    let frozen = skewed_model();
    let index = Arc::new(CatalogIndex::build(Arc::clone(&frozen), LAYOUT, BLOCK));
    let engine = Engine::new(Arc::clone(&frozen), LAYOUT, fixture::engine_cfg())
        .expect("valid")
        .with_catalog_index(index);
    let mut rng = fixture::rng(seed, fixture::STREAM_TRAFFIC);
    let n_items = LAYOUT.n_items as u32;
    for u in 0..LAYOUT.n_users as u32 {
        for _ in 0..MAX_SEQ {
            engine.append_event(u, rng.gen_range(0..n_items)).expect("ids in layout");
        }
    }
    let users: Vec<u32> = (0..N_QUERIES).map(|_| rng.gen_range(0..LAYOUT.n_users as u32)).collect();
    let items = (0..N_QUERIES).map(|_| rng.gen_range(0..n_items)).collect();
    for &u in &users[..4] {
        engine.retrieve_top_k(u, K).expect("valid warm-up query");
    }
    Fixture { frozen, engine, users, items }
}

fn view_of(frozen: &FrozenSeqFm, history: &[u32]) -> HistoryView {
    frozen.history_view(&fixture::padded_row(history), &mut Scratch::new())
}

/// Pruned engine answer vs. `retrieve_brute` over the same history: same
/// ids, same logit bits.
fn check_against_brute(
    fx: &Fixture,
    user: u32,
    history: &[u32],
    got: &Retrieval,
    out: &mut Outcome,
) {
    let index = fx.engine.catalog_index().expect("index attached");
    let want = index.retrieve_brute(user, &view_of(&fx.frozen, history), K);
    let bits = |r: &Retrieval| -> Vec<(u32, u32)> {
        r.items.iter().map(|s| (s.item, s.score.to_bits())).collect()
    };
    out.check(matches!(&want, Ok(w) if bits(w) == bits(got)), || {
        format!("retrieve: pruned top-{K} for user {user} differs from retrieve_brute")
    });
}

struct Retained {
    user: u32,
    history: Vec<u32>,
    result: Retrieval,
}

fn drive(
    fx: &Fixture,
    next: &mut usize,
    seconds: f64,
    tracer: &mut Tracer,
    retained: &mut Vec<Retained>,
    fresh_us: &mut Vec<f64>,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::start(4_096, 1.0);
    let deadline = harness::now_ns() + (seconds * 1e9) as u64;
    while harness::now_ns() < deadline {
        let idx = *next;
        *next += 1;
        let i = idx % N_QUERIES;
        let user = fx.users[i];
        out.attempted += 1;
        let append_ns = harness::now_ns();
        if idx.is_multiple_of(APPEND_EVERY) {
            let s = tracer.begin("serve.append_event", idx as u32);
            let appended = fx.engine.append_event(user, fx.items[i]);
            tracer.end(s);
            if let Err(e) = appended {
                out.fail(format!("retrieve: append {idx} failed: {e}"));
            }
        }
        let start = harness::now_ns();
        let s = tracer.begin("serve.retrieve_top_k", idx as u32);
        let result = fx.engine.retrieve_top_k(user, K);
        tracer.end(s);
        let done = harness::now_ns();
        phase.lat_us.push((done - start) as f64 / 1e3);
        phase.timeline.done(done);
        if idx.is_multiple_of(APPEND_EVERY) {
            fresh_us.push((done - append_ns) as f64 / 1e3);
        }
        match result {
            Ok(result) if idx.is_multiple_of(RETAIN_EVERY) => {
                let history = fx.engine.history(user).expect("user in layout");
                retained.push(Retained { user, history, result });
            }
            Ok(_) => {}
            Err(e) => out.fail(format!("retrieve: query {idx} failed: {e}")),
        }
    }
    phase
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (fx, setup_s) = harness::repeated_setup(|| setup(opts.seed));
    out.setup_s = setup_s;

    // Before timing: the first four queries against brute force.
    for &user in &fx.users[..4] {
        out.attempted += 1;
        match fx.engine.retrieve_top_k(user, K) {
            Ok(got) => {
                let history = fx.engine.history(user).expect("user in layout");
                check_against_brute(&fx, user, &history, &got, &mut out);
            }
            Err(e) => out.fail(format!("retrieve: pre-check for user {user} failed: {e}")),
        }
    }

    let mut tracer = if opts.trace { Tracer::on(100_000) } else { Tracer::off() };
    let mut next = 0usize;
    let mut retained = Vec::new();
    let mut fresh_us = Vec::new();
    let (untraced, traced) = fixture::run_windows(opts, &mut tracer, |seconds, tracer| {
        drive(&fx, &mut next, seconds, tracer, &mut retained, &mut fresh_us, &mut out)
    });
    // A sample is enough: each brute-force reference is a full catalog scan.
    for r in retained.iter().take(8) {
        check_against_brute(&fx, r.user, &r.history, &r.result, &mut out);
    }
    out.notes.push(format!("{} of {} retained results checked", retained.len().min(8), next));
    out.fresh_p50_us = harness::median(&mut fresh_us);
    fixture::summarise(&mut out, untraced, traced);

    if opts.trace {
        out.layer("serve.store.append_us", tracer.p50_us("serve.append_event"));
        replay(&fx, &mut tracer, &mut out);
        layers::tensor(&mut out);
        layers::parallel(&mut out);
        crate::finish_trace("retrieve", &tracer, &mut out);
    }
    out
}

/// The layer replay: a fixed sample of queries executed inline against a
/// freshly built index (fresh scan statistics, so the block counts repeat
/// exactly at a seed however long the timed window ran): `snapshot_into` →
/// `history_view` → `query_bounds` → `CatalogIndex::retrieve`.
fn replay(fx: &Fixture, tracer: &mut Tracer, out: &mut Outcome) {
    let frozen = skewed_model();
    let s = tracer.begin("retrieval.build", u32::MAX);
    let index = CatalogIndex::build(Arc::clone(&frozen), LAYOUT, BLOCK);
    tracer.end(s);
    let store = fx.engine.store();
    let mut snap = Vec::new();
    let mut counts = [0.0f64; 4];
    for (q, &user) in fx.users[N_QUERIES - REPLAY_QUERIES..].iter().enumerate() {
        let id = q as u32;
        let r = tracer.begin("replay", id);
        let s = tracer.begin("serve.store.snapshot", id);
        store.snapshot_into(user, &mut snap);
        tracer.end(s);
        let s = tracer.begin("core.history_view", id);
        let view = view_of(&frozen, &snap);
        tracer.end(s);
        let s = tracer.begin("core.query_bounds", id);
        std::hint::black_box(frozen.query_bounds(&LAYOUT, user, &view));
        tracer.end(s);
        let s = tracer.begin("retrieval.retrieve", id);
        let got = index.retrieve(user, &view, K).expect("valid query");
        tracer.end(s);
        tracer.end(r);
        let s = tracer.begin("retrieval.brute", id);
        let brute = index.retrieve_brute(user, &view, K).expect("valid query");
        tracer.end(s);
        std::hint::black_box(brute.items.len());
        for (c, v) in counts.iter_mut().zip([
            got.blocks_scored,
            got.blocks_pruned,
            got.blocks_repaired,
            got.items_scored,
        ]) {
            *c += v as f64 / REPLAY_QUERIES as f64;
        }
    }

    // One 64-item block through `score_catalog_into`, the scan's unit of work.
    let view = view_of(&frozen, &fx.engine.history(0).expect("user 0"));
    let block: Vec<u32> = (0..BLOCK as u32).collect();
    let mut batch = Batch {
        len: 0,
        n_static: 2,
        n_dynamic: MAX_SEQ,
        static_idx: Vec::new(),
        dyn_idx: Vec::new(),
        targets: Vec::new(),
    };
    let (mut scratch, mut logits) = (Scratch::new(), Vec::new());
    let block_us = harness::p50_us(10, 400, || {
        logits.clear();
        frozen.score_catalog_into(&LAYOUT, 0, &block, &view, &mut batch, &mut scratch, &mut logits);
        std::hint::black_box(logits[0]);
    });

    out.layer("retrieval.build_ms", tracer.p50_us("retrieval.build") / 1e3);
    out.layer("retrieval.retrieve_ms", tracer.p50_us("retrieval.retrieve") / 1e3);
    out.layer("retrieval.brute_ms", tracer.p50_us("retrieval.brute") / 1e3);
    out.layer("retrieval.blocks_scored", counts[0]);
    out.layer("retrieval.blocks_pruned", counts[1]);
    out.layer("retrieval.blocks_repaired", counts[2]);
    out.layer("retrieval.items_scored", counts[3]);
    out.layer("retrieval.skip_ratio", 1.0 - counts[0] / index.n_blocks() as f64);
    out.layer("serve.store.snapshot_us", tracer.p50_us("serve.store.snapshot"));
    out.layer("core.history_view_us", tracer.p50_us("core.history_view"));
    out.layer("core.query_bounds_us", tracer.p50_us("core.query_bounds"));
    out.layer("core.score_catalog_block_us", block_us);
}
