//! Full-catalog retrieval benchmarks: the blocked, upper-bound-pruned
//! `CatalogIndex` scan at catalog sizes from 10k to 1M items.
//!
//! Writes `BENCH_retrieval.json` at the repository root (catalog items/sec
//! at 10k/100k/1M, p50 latency of a top-100-of-1M query, measured prune
//! rate, the blocked-scan speedup over naive one-item-at-a-time scoring,
//! and what the embedding tables of a 1M-item replica hold resident under
//! each profile) so the retrieval trajectory is recorded PR over PR:
//!
//! ```text
//! cargo bench -p seqfm-bench --bench retrieval
//! ```
//!
//! The item linear weights are reshaped into a popularity-like skew (hot
//! head, long negative tail) before freezing — the catalog regime where
//! the upper-bound prune actually fires. Pruned results stay bit-identical
//! to brute force by construction (asserted here on every measured run).

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_bench::timing::{calib_spin_us, host_cpus, p50};
use seqfm_core::{FrozenSeqFm, HistoryView, ScorerPrecision, Scratch, SeqFm, SeqFmConfig};
use seqfm_data::{build_instance, FeatureLayout};
use seqfm_retrieval::CatalogIndex;
use std::sync::Arc;

const D: usize = 32;
const MAX_SEQ: usize = 10;
/// Catalog block: measured optimum on this scan. Per-block q/k/v/score
/// workspaces grow with the block (`block × (n° + n˙) × d × 3` floats), so
/// blocks past ~100 items start spilling L2 and get *slower* — 64 keeps
/// the whole per-block working set cache-resident while still amortising
/// batch rebuild and dispatch, and the finer granularity raises the prune
/// rate for free.
const BLOCK: usize = 64;
const K: usize = 100;

/// A frozen model over `n_items`, with the item linear table reshaped into
/// a popularity skew (`2 − 24·√rank-fraction`): a hot head a long tail
/// never out-scores, so the lin-sorted blocked scan can prune the tail.
fn build_model(n_items: usize) -> (Arc<FrozenSeqFm>, FeatureLayout) {
    build_model_at(n_items, ScorerPrecision::Exact)
}

fn build_model_at(n_items: usize, precision: ScorerPrecision) -> (Arc<FrozenSeqFm>, FeatureLayout) {
    let layout = FeatureLayout { n_users: 100, n_items };
    let cfg = SeqFmConfig { d: D, max_seq: MAX_SEQ, dropout: 0.0, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(17);
    let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
    let id = ps.id_of("seqfm.w_static.table").expect("item linear table");
    let w = ps.value_mut(id).data_mut();
    for c in 0..n_items {
        let r = (c as f32 + 1.0) / n_items as f32;
        w[layout.n_users + c] = 2.0 - 24.0 * r.sqrt();
    }
    (Arc::new(FrozenSeqFm::freeze(&model, &ps).with_precision(precision)), layout)
}

fn query_view(model: &FrozenSeqFm, layout: &FeatureLayout, user: u32) -> HistoryView {
    let hist: Vec<u32> =
        (0..MAX_SEQ).map(|j| ((user as usize * 13 + j * 7) % layout.n_items) as u32).collect();
    let inst = build_instance(layout, user, 0, &hist, MAX_SEQ, 0.0);
    model.history_view(&inst.dyn_idx, &mut Scratch::new())
}

fn main() {
    let calib_spin = calib_spin_us();

    // items/sec of the pruned scan at each catalog size (the whole catalog
    // counts: skipped blocks are work *avoided*, not work unmeasured), plus
    // the measured prune rate. Every timed configuration is checked against
    // brute force — a benchmark that quietly returned wrong ids would be
    // worse than useless. The index is immutable, so the checked run does
    // exactly the work of every timed one.
    let mut items_per_sec = Vec::new();
    let mut p50_1m = 0.0;
    let mut prune_rate_1m = 0.0f64;
    let mut blocks_scored_1m = 0usize;
    let mut n_blocks_1m = 0usize;
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let (model, layout) = build_model(n);
        let index = CatalogIndex::build(Arc::clone(&model), layout, BLOCK);
        let view = query_view(&model, &layout, 7);
        let brute = index.retrieve_brute(7, &view, K).expect("valid");
        let pruned = index.retrieve(7, &view, K).expect("valid");
        assert_eq!(
            brute.items.iter().map(|s| (s.item, s.score.to_bits())).collect::<Vec<_>>(),
            pruned.items.iter().map(|s| (s.item, s.score.to_bits())).collect::<Vec<_>>(),
            "pruned retrieval diverged from brute force at n = {n}"
        );
        let iters = if n >= 1_000_000 { 5 } else { 20 };
        let secs = p50(2, iters, || {
            std::hint::black_box(index.retrieve(7, &view, K).expect("valid"));
        });
        items_per_sec.push(n as f64 / secs);
        if n == 1_000_000 {
            p50_1m = secs;
            prune_rate_1m = pruned.prune_rate();
            blocks_scored_1m = pruned.blocks_scored;
            n_blocks_1m = index.n_blocks();
        }
        println!(
            "n = {n}: p50 {:.2} ms, prune rate {:.3}, blocks scored {} of {}",
            secs * 1e3,
            pruned.prune_rate(),
            pruned.blocks_scored,
            index.n_blocks()
        );
    }

    // The `Fast` profile over the same 1M catalog: same kernels on
    // quantised parameters, same index shape, same bit-identical
    // pruned-vs-brute contract (quantized envelopes add zero width — both
    // sides read the effective weights θ′).
    let (fast_model, fast_layout) = build_model_at(1_000_000, ScorerPrecision::Fast);
    let fast_index = CatalogIndex::build(Arc::clone(&fast_model), fast_layout, BLOCK);
    let fast_view = query_view(&fast_model, &fast_layout, 7);
    let fast_brute = fast_index.retrieve_brute(7, &fast_view, K).expect("valid");
    let fast_pruned = fast_index.retrieve(7, &fast_view, K).expect("valid");
    assert_eq!(
        fast_brute.items.iter().map(|s| (s.item, s.score.to_bits())).collect::<Vec<_>>(),
        fast_pruned.items.iter().map(|s| (s.item, s.score.to_bits())).collect::<Vec<_>>(),
        "fast pruned retrieval diverged from fast brute force"
    );
    let fast_p50_1m = p50(2, 5, || {
        std::hint::black_box(fast_index.retrieve(7, &fast_view, K).expect("valid"));
    });
    let items_per_sec_1m_fast = 1_000_000f64 / fast_p50_1m;
    // What the two embedding tables hold resident at 1M items: the `f32`
    // snapshot θ every replica keeps, and under `Fast` the quantised `f32`
    // copy θ′ beside it (the forward reads only θ′; nothing is freed).
    let emb_elems: usize = ["seqfm.emb_static.table", "seqfm.emb_dynamic.table"]
        .iter()
        .map(|name| fast_model.params().get(name).expect("embedding table").numel())
        .sum();
    let emb_table_mb_f32 = (emb_elems * 4) as f64 / 1e6;
    let emb_table_mb_fast_resident = (emb_elems * (4 + 4)) as f64 / 1e6;
    println!(
        "n = 1000000 [fast]: p50 {:.2} ms, prune rate {:.3}",
        fast_p50_1m * 1e3,
        fast_pruned.prune_rate()
    );

    // Naive baseline: one item per block means one batch build, one matmul
    // dispatch, and one top-K push *per item* — the per-item scoring loop a
    // retrieval layer exists to avoid. Same model, same exact results.
    let (model, layout) = build_model(10_000);
    let naive_index = CatalogIndex::build(Arc::clone(&model), layout, 1);
    let blocked_index = CatalogIndex::build(Arc::clone(&model), layout, BLOCK);
    let view = query_view(&model, &layout, 7);
    let naive_p50 = p50(1, 5, || {
        std::hint::black_box(naive_index.retrieve_brute(7, &view, K).expect("valid"));
    });
    let blocked_p50 = p50(2, 20, || {
        std::hint::black_box(blocked_index.retrieve_brute(7, &view, K).expect("valid"));
    });
    let blocked_vs_naive = naive_p50 / blocked_p50;
    // `parity_check` records that every timed configuration above asserted
    // bit-identity against brute force before its numbers were written —
    // the asserts panic on divergence, so reaching this line proves it.
    let json = format!(
        "{{\n  \"bench\": \"retrieval\",\n  \"config\": {{ \"d\": {D}, \"max_seq\": {MAX_SEQ}, \"block\": {BLOCK}, \"k\": {K} }},\n  \"host_cpus\": {host_cpus},\n  \"calib_spin_us\": {calib_spin:.1},\n  \"parity_check\": true,\n  \"items_per_sec_10k\": {:.0},\n  \"items_per_sec_100k\": {:.0},\n  \"items_per_sec_1m\": {:.0},\n  \"items_per_sec_1m_fast\": {:.0},\n  \"fast_vs_exact_speedup_1m\": {:.2},\n  \"emb_table_mb_f32_1m\": {emb_table_mb_f32:.1},\n  \"emb_table_mb_fast_resident_1m\": {emb_table_mb_fast_resident:.1},\n  \"p50_top100_of_1m_ms\": {:.2},\n  \"prune_rate_1m\": {:.3},\n  \"blocks_scored_1m\": {blocks_scored_1m},\n  \"n_blocks_1m\": {n_blocks_1m},\n  \"blocked_vs_naive_per_item_speedup_10k\": {:.2}\n}}\n",
        items_per_sec[0],
        items_per_sec[1],
        items_per_sec[2],
        items_per_sec_1m_fast,
        items_per_sec_1m_fast / items_per_sec[2],
        p50_1m * 1e3,
        prune_rate_1m,
        blocked_vs_naive,
        host_cpus = host_cpus(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_retrieval.json");
    std::fs::write(path, &json).expect("write BENCH_retrieval.json");
    println!("== BENCH_retrieval.json ==\n{json}");
}
