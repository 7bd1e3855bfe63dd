//! [`HistoryView`] scoring is **bit-identical** to the plain forward —
//! against both the frozen fast paths and the autograd graph — for every
//! Table-V ablation variant, across batch shapes (candidate expansion,
//! single row) and view histories of every padding length.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::{Graph, ParamStore};
use seqfm_core::{Ablation, FrozenSeqFm, Scorer, Scratch, SeqFm, SeqFmConfig, SeqModel};
use seqfm_data::{build_instance, Batch, FeatureLayout};

const MAX_SEQ: usize = 6;

fn layout() -> FeatureLayout {
    FeatureLayout { n_users: 6, n_items: 10 }
}

fn setup(ab: Ablation, seed: u64) -> (SeqFm, ParamStore) {
    let cfg =
        SeqFmConfig { d: 8, max_seq: MAX_SEQ, dropout: 0.0, ablation: ab, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
    (model, ps)
}

fn graph_logits(model: &SeqFm, ps: &ParamStore, b: &Batch) -> Vec<f32> {
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(77);
    let y = model.forward(&mut g, ps, b, false, &mut rng);
    g.value(y).data().to_vec()
}

/// A candidate-expansion batch: one shared history, `n_cand` candidates.
fn expansion_batch(user: u32, hist: &[u32], n_cand: usize) -> Batch {
    let l = layout();
    let insts: Vec<_> =
        (0..n_cand).map(|c| build_instance(&l, user, c as u32, hist, MAX_SEQ, 0.0)).collect();
    Batch::try_from_instances(&insts).expect("valid batch")
}

fn assert_bits(name: &str, ctx: &str, expect: &[f32], got: &[f32]) {
    assert_eq!(expect.len(), got.len(), "{name}/{ctx}: length mismatch");
    for (i, (e, g)) in expect.iter().zip(got).enumerate() {
        assert_eq!(e.to_bits(), g.to_bits(), "{name}/{ctx}: logit {i} diverges ({e} vs {g})");
    }
}

#[test]
fn view_scoring_is_bit_identical_across_all_variants() {
    // Histories of different lengths exercise every padding count,
    // including a full window (no pad) and a single event (max pad).
    let hists: [&[u32]; 3] = [&[1, 2, 5, 8], &[3, 0, 7, 2, 9, 4], &[6]];
    for (name, ab) in Ablation::table5_variants() {
        let (model, ps) = setup(ab, 17);
        let frozen = FrozenSeqFm::freeze(&model, &ps);
        let mut scratch = Scratch::new();
        for hist in hists {
            for n_cand in [7usize, 1] {
                let batch = expansion_batch(3, hist, n_cand);
                let expect = graph_logits(&model, &ps, &batch);
                // Plain frozen path (shared fast path or single-row).
                let plain = frozen.score(&batch, &mut scratch).to_vec();
                assert_bits(name, "plain", &expect, &plain);
                // View built directly, scored through the cached path.
                let view = frozen.history_view(&batch.dyn_idx[..batch.n_dynamic], &mut scratch);
                let cached = frozen.score_with_view(&batch, &view, &mut scratch).to_vec();
                assert_bits(name, "view", &expect, &cached);
            }
        }
    }
}

#[test]
fn scorer_trait_hooks_route_through_the_view_path() {
    let (model, ps) = setup(Ablation::default(), 23);
    let frozen = FrozenSeqFm::freeze(&model, &ps);
    let batch = expansion_batch(2, &[4, 1, 9], 5);
    let mut scratch = Scratch::new();
    let expect = frozen.score(&batch, &mut scratch).to_vec();
    let view = frozen
        .build_history_view(&batch.dyn_idx[..batch.n_dynamic], &mut scratch)
        .expect("frozen scorer builds views");
    assert_eq!(view.nd(), MAX_SEQ);
    assert_eq!(view.dyn_idx(), &batch.dyn_idx[..batch.n_dynamic]);
    let mut out = Vec::new();
    frozen.score_with_view_into(&batch, &view, &mut scratch, &mut out);
    assert_bits("default", "trait-hooks", &expect, &out);
}

#[test]
fn view_reuse_across_users_is_bit_identical() {
    // The view depends only on history content — scoring a *different*
    // user's expansion batch over the same canonical history must reuse it
    // bit-identically (the contract behind cross-user coalescing).
    let (model, ps) = setup(Ablation::default(), 31);
    let frozen = FrozenSeqFm::freeze(&model, &ps);
    let mut scratch = Scratch::new();
    let hist = [2u32, 7, 3];
    let batch_a = expansion_batch(1, &hist, 4);
    let batch_b = expansion_batch(5, &hist, 4);
    let view = frozen.history_view(&batch_a.dyn_idx[..batch_a.n_dynamic], &mut scratch);
    let got_b = frozen.score_with_view(&batch_b, &view, &mut scratch).to_vec();
    let expect_b = graph_logits(&model, &ps, &batch_b);
    assert_bits("default", "cross-user", &expect_b, &got_b);
}

#[test]
#[should_panic(expected = "does not match the batch's dynamic block")]
fn stale_view_is_rejected_loudly() {
    let (model, ps) = setup(Ablation::default(), 41);
    let frozen = FrozenSeqFm::freeze(&model, &ps);
    let mut scratch = Scratch::new();
    let view =
        frozen.history_view(&expansion_batch(0, &[1, 2], 1).dyn_idx[..MAX_SEQ], &mut scratch);
    // History moved on (append happened) but the view didn't: must panic,
    // not serve stale scores.
    let newer = expansion_batch(0, &[1, 2, 3], 1);
    let _ = frozen.score_with_view(&newer, &view, &mut scratch);
}

/// Lends the view of history `[1, 2, 3]` to a 2-row batch over `[9, 9, 9]`
/// whose dynamic block has been cut to `keep` of its rows, the first of
/// them replaced by the view's own row.
fn lend_to_a_cut_batch(keep: usize) {
    let (model, ps) = setup(Ablation::default(), 41);
    let frozen = FrozenSeqFm::freeze(&model, &ps);
    let mut scratch = Scratch::new();
    let view =
        frozen.history_view(&expansion_batch(0, &[1, 2, 3], 1).dyn_idx[..MAX_SEQ], &mut scratch);
    let mut batch = expansion_batch(0, &[9, 9, 9], 2);
    batch.dyn_idx.truncate(keep * MAX_SEQ);
    if keep > 0 {
        batch.dyn_idx[..MAX_SEQ].copy_from_slice(view.dyn_idx());
    }
    // Unchecked, both cuts score the view's history, [0.4222, 0.3861],
    // where the batch's own history scores [-0.2900, -0.0902].
    let _ = frozen.score_with_view(&batch, &view, &mut scratch);
}

#[test]
#[should_panic(expected = "view lent to a batch without its rows")]
fn a_view_lent_to_a_batch_without_a_dynamic_block_is_rejected() {
    lend_to_a_cut_batch(0);
}

#[test]
#[should_panic(expected = "view lent to a batch without its rows")]
fn a_view_lent_to_a_batch_with_one_matching_row_of_two_is_rejected() {
    lend_to_a_cut_batch(1);
}

#[test]
fn graph_scorer_reports_no_view_support() {
    let (model, ps) = setup(Ablation::default(), 47);
    let scorer = seqfm_core::GraphScorer::new(model, ps);
    let mut scratch = Scratch::new();
    assert!(scorer.build_history_view(&[1, 2, 3], &mut scratch).is_none());
}
