//! Full-catalog retrieval parity: the upper-bound-pruned blocked scan must
//! return **exactly** the brute-force top-K — same item ids, same logit
//! bits — for every Table-V ablation variant, both on a cold stored history
//! and immediately after a live `append_event` (the freshly bumped version
//! forces a view rebuild mid-flight).
//!
//! The soundness chain under test: candidate-side convex envelopes and the
//! LN z-ball (see `seqfm_core::bounds`) make every per-block upper bound
//! ≥ every true score in the block; the scan prunes only on a strict `<`
//! against the running k-th best, so no tie and no rounding can drop a
//! true top-K member — pruning is invisible in the output.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_core::{Ablation, FrozenSeqFm, Scratch, SeqFm, SeqFmConfig};
use seqfm_data::FeatureLayout;
use seqfm_serve::{CatalogIndex, Engine, EngineConfig, Retrieval};
use std::sync::Arc;

const MAX_SEQ: usize = 6;
const K: usize = 10;

fn build_variant(
    ablation: Ablation,
    n_items: usize,
    seed: u64,
) -> (Arc<FrozenSeqFm>, FeatureLayout) {
    let layout = FeatureLayout { n_users: 6, n_items };
    let cfg = SeqFmConfig { d: 8, max_seq: MAX_SEQ, dropout: 0.0, ablation, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
    (Arc::new(FrozenSeqFm::freeze(&model, &ps)), layout)
}

/// Brute-force reference through the *same* stored history the engine
/// used: snapshot the store, build the canonical serving row, score every
/// block. Any divergence between this and `retrieve_top_k` is a bug in the
/// prune, the view cache, or the row canonicalisation.
fn brute_via_store(engine: &Engine, index: &CatalogIndex, user: u32, k: usize) -> Retrieval {
    let items = engine.history(user).expect("known user");
    let mut row: Vec<i64> = vec![seqfm_data::PAD; MAX_SEQ - items.len().min(MAX_SEQ)];
    row.extend(items[items.len() - items.len().min(MAX_SEQ)..].iter().map(|&it| it as i64));
    let view = index.model().history_view(&row, &mut Scratch::new());
    index.retrieve_brute(user, &view, k).expect("valid retrieval")
}

fn assert_bit_identical(name: &str, when: &str, pruned: &Retrieval, brute: &Retrieval) {
    assert_eq!(pruned.items.len(), brute.items.len(), "[{name}/{when}] result length");
    for (rank, (p, b)) in pruned.items.iter().zip(&brute.items).enumerate() {
        assert_eq!(p.item, b.item, "[{name}/{when}] item id diverges at rank {rank}");
        assert_eq!(
            p.score.to_bits(),
            b.score.to_bits(),
            "[{name}/{when}] logit bits diverge at rank {rank} (item {})",
            p.item
        );
    }
}

#[test]
fn pruned_retrieval_is_bit_identical_to_brute_force_across_all_variants() {
    for (vi, (name, ablation)) in Ablation::table5_variants().into_iter().enumerate() {
        let (frozen, layout) = build_variant(ablation, 150, 41 + vi as u64);
        let index = Arc::new(CatalogIndex::build(Arc::clone(&frozen), layout, 16));
        let engine_cfg =
            EngineConfig::builder().threads(2).max_seq(MAX_SEQ).build().expect("valid config");
        let engine = Engine::new(Arc::clone(&frozen), layout, engine_cfg)
            .expect("valid engine")
            .with_catalog_index(Arc::clone(&index));

        // Cold: a stored history built up before the first retrieval.
        let user = 3u32;
        for item in [2u32, 77, 31] {
            engine.append_event(user, item).expect("known ids");
        }
        let pruned = engine.retrieve_top_k(user, K).expect("valid retrieval");
        let brute = brute_via_store(&engine, &index, user, K);
        assert_bit_identical(name, "cold", &pruned, &brute);
        assert_eq!(
            pruned.blocks_scored + pruned.blocks_pruned,
            index.n_blocks(),
            "[{name}] every block is either scored or pruned"
        );

        // Immediately after a live append: the version bump must invalidate
        // the cached view, and the pruned scan over the *new* history must
        // again match brute force bit for bit.
        engine.append_event(user, 120).expect("known ids");
        let pruned2 = engine.retrieve_top_k(user, K).expect("valid retrieval");
        let brute2 = brute_via_store(&engine, &index, user, K);
        assert_bit_identical(name, "after append_event", &pruned2, &brute2);
        assert_ne!(
            brute.items.iter().map(|s| s.score.to_bits()).collect::<Vec<_>>(),
            brute2.items.iter().map(|s| s.score.to_bits()).collect::<Vec<_>>(),
            "[{name}] the append must actually change the scores (else this test proves nothing)"
        );
    }
}

#[test]
fn retrieval_parity_holds_at_higher_worker_counts() {
    // The shard-merge and the prune threshold must be worker-count
    // independent: re-run one variant's cold check on a 4-thread engine
    // and compare against the single-thread result of the same index.
    let (frozen, layout) = build_variant(Ablation::default(), 200, 7);
    let index = Arc::new(CatalogIndex::build(Arc::clone(&frozen), layout, 8));
    let mut results: Vec<Retrieval> = Vec::new();
    for threads in [1usize, 4] {
        let engine_cfg = EngineConfig::builder()
            .threads(threads)
            .max_seq(MAX_SEQ)
            .build()
            .expect("valid config");
        let engine = Engine::new(Arc::clone(&frozen), layout, engine_cfg)
            .expect("valid engine")
            .with_catalog_index(Arc::clone(&index));
        for item in [9u32, 150, 42, 8] {
            engine.append_event(2, item).expect("known ids");
        }
        results.push(engine.retrieve_top_k(2, 25).expect("valid retrieval"));
    }
    assert_bit_identical("default", "1 vs 4 threads", &results[0], &results[1]);
}
