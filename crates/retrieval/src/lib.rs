#![warn(missing_docs)]

//! # seqfm-retrieval
//!
//! Full-catalog top-K retrieval over a frozen SeqFM: the
//! retrieval-then-rank serving shape the paper's ranking experiments
//! presuppose, scaled to "score *everything*".
//!
//! * [`CatalogIndex`] — the catalog pre-blocked for scanning: per-item
//!   linear partial scores and per-block candidate-side bound envelopes are
//!   computed once at build; every retrieval streams the blocks through
//!   [`FrozenSeqFm`](seqfm_core::FrozenSeqFm) reusing a single cached
//!   [`HistoryView`](seqfm_core::HistoryView), so the history-side work is
//!   paid once per query instead of once per item.
//! * [`TopK`] / [`rank_cmp`] — deterministic bounded selection: per-worker
//!   shards merge under a total order (descending score by `total_cmp`,
//!   item-id tiebreak, NaN last), so results are bit-identical at any
//!   worker count.
//! * [`CatalogIndex::retrieve`] — the pruned path: one pass over the blocks
//!   in descending order of their sound upper bound (see
//!   [`seqfm_core::bounds`]), stopping at the first block whose bound falls
//!   strictly below the running k-th best score. Only the sound bound ever
//!   excludes a block, so retrieval returns the **exact** brute-force top-K
//!   (same ids, same logit bits), and the index is immutable after build: a
//!   retrieval is a pure function of `(index, view, k, workers)`.

pub mod index;
pub mod topk;

pub use index::{CatalogIndex, Retrieval, RetrievalError};
pub use topk::{rank_cmp, ScoredItem, TopK};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqfm_autograd::ParamStore;
    use seqfm_core::{FrozenSeqFm, Scratch, SeqFm, SeqFmConfig};
    use seqfm_data::{build_instance, FeatureLayout};
    use seqfm_parallel::ThreadPool;
    use std::sync::Arc;

    fn setup(n_items: usize, seed: u64) -> (Arc<FrozenSeqFm>, FeatureLayout) {
        setup_with(n_items, seed, false)
    }

    /// `spread` reshapes the item linear weights into a popularity-like
    /// skew (hot head, long negative tail) — the regime where the
    /// upper-bound prune actually fires.
    fn setup_with(n_items: usize, seed: u64, spread: bool) -> (Arc<FrozenSeqFm>, FeatureLayout) {
        setup_tuned(n_items, seed, |ps, layout| {
            if spread {
                set_item_linear(ps, layout, |c| {
                    2.0 - 24.0 * ((c as f32 + 1.0) / n_items as f32).sqrt()
                });
            }
        })
    }

    /// A d = 8 model whose parameters `tune` may overwrite before freezing.
    fn setup_tuned(
        n_items: usize,
        seed: u64,
        tune: impl FnOnce(&mut ParamStore, &FeatureLayout),
    ) -> (Arc<FrozenSeqFm>, FeatureLayout) {
        let layout = FeatureLayout { n_users: 5, n_items };
        let cfg = SeqFmConfig { d: 8, max_seq: 6, dropout: 0.0, ..Default::default() };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
        tune(&mut ps, &layout);
        (Arc::new(FrozenSeqFm::freeze(&model, &ps)), layout)
    }

    fn set_item_linear(ps: &mut ParamStore, layout: &FeatureLayout, lin: impl Fn(usize) -> f32) {
        let id = ps.id_of("seqfm.w_static.table").expect("item linear table");
        let w = ps.value_mut(id).data_mut();
        for c in 0..layout.n_items {
            w[layout.n_users + c] = lin(c);
        }
    }

    fn view_for(
        model: &FrozenSeqFm,
        layout: &FeatureLayout,
        user: u32,
        hist: &[u32],
    ) -> seqfm_core::HistoryView {
        let inst = build_instance(layout, user, 0, hist, 6, 0.0);
        model.history_view(&inst.dyn_idx, &mut Scratch::new())
    }

    fn assert_items_bit_equal(want: &Retrieval, got: &Retrieval) {
        assert_eq!(want.items.len(), got.items.len());
        for (w, g) in want.items.iter().zip(&got.items) {
            assert_eq!(w.item, g.item);
            assert_eq!(w.score.to_bits(), g.score.to_bits());
        }
    }

    #[test]
    fn pruned_matches_brute_bitwise() {
        let (model, layout) = setup(97, 3);
        let index = CatalogIndex::build(model.clone(), layout, 16);
        let view = view_for(&model, &layout, 2, &[4, 90, 17]);
        let brute = index.retrieve_brute(2, &view, 10).unwrap();
        let pruned = index.retrieve(2, &view, 10).unwrap();
        assert_eq!(brute.items.len(), 10);
        assert_eq!(pruned.items.len(), 10);
        for (b, p) in brute.items.iter().zip(&pruned.items) {
            assert_eq!(b.item, p.item);
            assert_eq!(b.score.to_bits(), p.score.to_bits());
        }
        assert_eq!(pruned.blocks_scored + pruned.blocks_pruned, index.n_blocks());
    }

    /// On a popularity-skewed catalog the prune must actually fire — and
    /// still return exactly the brute-force answer, bit for bit.
    #[test]
    fn prune_fires_on_skewed_catalogs_and_stays_exact() {
        let (model, layout) = setup_with(2000, 13, true);
        let index = CatalogIndex::build(model.clone(), layout, 32);
        let view = view_for(&model, &layout, 1, &[3, 1400, 250]);
        let brute = index.retrieve_brute(1, &view, 10).unwrap();
        let pruned = index.retrieve(1, &view, 10).unwrap();
        assert!(
            pruned.blocks_pruned > 0,
            "expected the skewed tail to prune, got {} scored / {} pruned",
            pruned.blocks_scored,
            pruned.blocks_pruned
        );
        for (b, p) in brute.items.iter().zip(&pruned.items) {
            assert_eq!(b.item, p.item);
            assert_eq!(b.score.to_bits(), p.score.to_bits());
        }
    }

    /// Worst case for the bound order: a perfectly flat catalog (every item
    /// linear weight identical) gives it nothing to work with. The scan must
    /// degrade to the brute one and stay bit-exact.
    #[test]
    fn flat_catalog_degrades_to_the_sound_scan_without_repair_overhead() {
        let (model, layout) =
            setup_tuned(96, 29, |ps, layout| set_item_linear(ps, layout, |_| 0.125));
        let index = CatalogIndex::build(Arc::clone(&model), layout, 16);
        let view = view_for(&model, &layout, 3, &[10, 55, 7]);
        let pruned = index.retrieve(3, &view, 10).unwrap();
        let brute = index.retrieve_brute(3, &view, 10).unwrap();
        assert_items_bit_equal(&brute, &pruned);
        assert_eq!(pruned.blocks_scored + pruned.blocks_pruned, index.n_blocks());
    }

    /// The index holds no state a retrieval could change, so the work
    /// counters repeat along with the items.
    #[test]
    fn retrieval_is_a_pure_function_of_its_inputs() {
        let (model, layout) = setup_with(2000, 13, true);
        let index = CatalogIndex::build(model.clone(), layout, 32);
        let view = view_for(&model, &layout, 1, &[3, 1400, 250]);
        let first = index.retrieve(1, &view, 10).unwrap();
        index.retrieve_brute(1, &view, 10).unwrap();
        let second = index.retrieve(1, &view, 10).unwrap();
        assert!(first.blocks_pruned > 0, "the comparison must cover a scan that prunes");
        assert_eq!(first, second);
    }

    /// NaN parameters must not break pruned ≡ brute. A NaN item-embedding
    /// entry makes that item's logit NaN while the envelope's `min`/`max`
    /// drop its projections, so its block keeps a finite bound over the
    /// other items and only `rank_cmp`'s NaN-last order keeps skipping it
    /// sound. A NaN global bias makes every bound NaN — mapped to +inf, so
    /// nothing is pruned — and every logit NaN.
    #[test]
    fn nan_parameters_keep_pruned_equal_to_brute() {
        // Item 390's embedding row starts at (n_users + 390) · d.
        for (param, at) in [("seqfm.emb_static.table", (5 + 390) * 8 + 3), ("seqfm.w0", 0)] {
            let (model, layout) = setup_tuned(400, 17, |ps, layout| {
                set_item_linear(ps, layout, |c| 2.0 - 24.0 * ((c as f32 + 1.0) / 400.0).sqrt());
                let id = ps.id_of(param).expect("poisoned parameter");
                ps.value_mut(id).data_mut()[at] = f32::NAN;
            });
            let index = CatalogIndex::build(Arc::clone(&model), layout, 16);
            let view = view_for(&model, &layout, 2, &[4, 90, 17]);
            for k in [5, 400] {
                let brute = index.retrieve_brute(2, &view, k).unwrap();
                let pruned = index.retrieve(2, &view, k).unwrap();
                assert_eq!(brute.items.len(), k, "[{param}] k={k}");
                assert_items_bit_equal(&brute, &pruned);
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (model, layout) = setup(61, 8);
        let index = CatalogIndex::build(model.clone(), layout, 8);
        let view = view_for(&model, &layout, 4, &[1, 2, 3, 4, 5, 6]);
        let p1 = ThreadPool::new(1);
        let p4 = ThreadPool::new(4);
        for retrieve in [CatalogIndex::retrieve_in, CatalogIndex::retrieve_brute_in] {
            let serial = retrieve(&index, 4, &view, 7, &p1).unwrap();
            let parallel = retrieve(&index, 4, &view, 7, &p4).unwrap();
            assert_eq!(serial.items.len(), parallel.items.len());
            for (a, b) in serial.items.iter().zip(&parallel.items) {
                assert_eq!(a.item, b.item);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn k_of_at_least_catalog_size_returns_all_items_sorted() {
        let (model, layout) = setup(9, 5);
        let index = CatalogIndex::build(model.clone(), layout, 4);
        let view = view_for(&model, &layout, 0, &[2, 7]);
        for k in [9, 10, usize::MAX] {
            let r = index.retrieve(0, &view, k).unwrap();
            assert_eq!(r.items.len(), 9, "k={k} must return the whole catalog");
            for w in r.items.windows(2) {
                assert_ne!(
                    rank_cmp(&w[1], &w[0]),
                    std::cmp::Ordering::Less,
                    "items must be rank-sorted"
                );
            }
            let mut ids: Vec<u32> = r.items.iter().map(|c| c.item).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..9).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn k_zero_is_a_typed_error_not_a_panic() {
        let (model, layout) = setup(9, 5);
        let index = CatalogIndex::build(model.clone(), layout, 4);
        let view = view_for(&model, &layout, 0, &[2]);
        for result in [index.retrieve(0, &view, 0), index.retrieve_brute(0, &view, 0)] {
            match result {
                Err(RetrievalError::BadConfig { reason }) => {
                    assert!(reason.contains("k == 0"), "unexpected reason: {reason}")
                }
                other => panic!("expected BadConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_user_is_a_typed_error() {
        let (model, layout) = setup(9, 5);
        let index = CatalogIndex::build(model.clone(), layout, 4);
        let view = view_for(&model, &layout, 0, &[2]);
        assert!(matches!(index.retrieve(99, &view, 3), Err(RetrievalError::BadConfig { .. })));
    }

    #[test]
    fn index_precomputes_item_linear_partials() {
        let (model, layout) = setup(12, 6);
        let index = CatalogIndex::build(model.clone(), layout, 5);
        assert_eq!(index.n_blocks(), 3);
        assert_eq!(index.block_size(), 5);
        assert_eq!(index.n_items(), 12);
        for c in 0..12u32 {
            assert_eq!(index.item_linear(c).to_bits(), model.item_linear(&layout, c).to_bits());
        }
    }
}
