//! Fast-profile parity: `ScorerPrecision::Fast` must track the exact
//! scorer within the documented per-logit ε, preserve ranking order, and
//! keep pruned retrieval bit-identical to brute force — on every Table-V
//! ablation variant.
//!
//! The documented envelope (see `seqfm_core::precision`) is
//! `|fast − exact| ≤ 2e-2 + 1e-2·|exact|`; the dominant error source is
//! the `f16` embedding quantization step (2⁻¹¹ relative per coordinate).
//! Ranking preservation is asserted in its sound form: two items whose
//! exact logits are separated by more than the *sum* of their ε budgets
//! can never swap under the fast profile.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_core::{Ablation, FrozenSeqFm, Scorer, ScorerPrecision, Scratch, SeqFm, SeqFmConfig};
use seqfm_data::{build_instance, FeatureLayout};
use seqfm_serve::CatalogIndex;
use std::sync::Arc;

const MAX_SEQ: usize = 6;
const D: usize = 8;
const N_ITEMS: usize = 150;

/// The documented per-logit ε budget of the fast profile.
fn eps(exact: f32) -> f64 {
    2e-2 + 1e-2 * exact.abs() as f64
}

fn build_pair(ablation: Ablation, seed: u64) -> (FrozenSeqFm, FrozenSeqFm, FeatureLayout) {
    let layout = FeatureLayout { n_users: 6, n_items: N_ITEMS };
    let cfg = SeqFmConfig { d: D, max_seq: MAX_SEQ, dropout: 0.0, ablation, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
    let exact = FrozenSeqFm::freeze(&model, &ps);
    let fast = FrozenSeqFm::freeze(&model, &ps).with_precision(ScorerPrecision::Fast);
    (exact, fast, layout)
}

/// Full-catalog logits for one user under one model, via the serving path
/// (history view + blocked catalog scorer).
fn catalog_logits(model: &FrozenSeqFm, layout: &FeatureLayout, user: u32) -> Vec<f32> {
    let hist = [2u32, 77, 31, 9];
    let inst = build_instance(layout, user, 0, &hist, MAX_SEQ, 0.0);
    let mut scratch = Scratch::new();
    let view = model.history_view(&inst.dyn_idx, &mut scratch);
    let ids: Vec<u32> = (0..layout.n_items as u32).collect();
    let mut batch = seqfm_data::Batch::default();
    let mut out = Vec::new();
    for chunk in ids.chunks(16) {
        model.score_catalog_into(layout, user, chunk, &view, &mut batch, &mut scratch, &mut out);
    }
    out
}

#[test]
fn fast_logits_stay_inside_the_documented_epsilon_on_every_variant() {
    for (vi, (name, ablation)) in Ablation::table5_variants().into_iter().enumerate() {
        let (exact, fast, layout) = build_pair(ablation, 101 + vi as u64);
        assert_eq!(exact.name(), "SeqFM[frozen]");
        assert_eq!(fast.name(), "SeqFM[frozen:fast]");
        let se = catalog_logits(&exact, &layout, 3);
        let sf = catalog_logits(&fast, &layout, 3);
        assert_eq!(se.len(), sf.len());
        let mut max_err = 0.0f64;
        let mut any_diff = false;
        for (c, (&e, &f)) in se.iter().zip(&sf).enumerate() {
            let err = (f as f64 - e as f64).abs();
            max_err = max_err.max(err);
            any_diff |= e.to_bits() != f.to_bits();
            assert!(
                err <= eps(e),
                "[{name}] item {c}: fast logit {f} vs exact {e} (err {err:.3e} > ε {:.3e})",
                eps(e)
            );
        }
        // A fast profile that never changes a bit would mean the quantized
        // path silently fell back to exact — the ε assertion above would
        // then prove nothing.
        assert!(
            any_diff,
            "[{name}] fast profile produced bit-identical logits (max_err {max_err:.1e})"
        );
    }
}

#[test]
fn fast_profile_preserves_ranking_order_on_every_variant() {
    const K: usize = 10;
    for (vi, (name, ablation)) in Ablation::table5_variants().into_iter().enumerate() {
        let (exact, fast, layout) = build_pair(ablation, 101 + vi as u64);
        let se = catalog_logits(&exact, &layout, 3);
        let sf = catalog_logits(&fast, &layout, 3);

        // Sound pairwise check: a gap wider than both items' ε budgets
        // cannot invert under the fast profile.
        for i in 0..se.len() {
            for j in 0..se.len() {
                let gap = se[i] as f64 - se[j] as f64;
                if gap > eps(se[i]) + eps(se[j]) {
                    assert!(
                        sf[i] > sf[j],
                        "[{name}] fast profile inverted items {i} ({} vs exact {}) and \
                         {j} ({} vs exact {}) across an ε-separated gap {gap:.3e}",
                        sf[i],
                        se[i],
                        sf[j],
                        se[j]
                    );
                }
            }
        }

        // Top-K preservation whenever the exact boundary is ε-separated
        // (ties inside the ε band may legitimately swap membership).
        let rank = |scores: &[f32]| -> Vec<usize> {
            let mut ids: Vec<usize> = (0..scores.len()).collect();
            ids.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            ids
        };
        let re = rank(&se);
        let rf = rank(&sf);
        let boundary_gap = se[re[K - 1]] as f64 - se[re[K]] as f64;
        if boundary_gap > eps(se[re[K - 1]]) + eps(se[re[K]]) {
            let mut te: Vec<usize> = re[..K].to_vec();
            let mut tf: Vec<usize> = rf[..K].to_vec();
            te.sort_unstable();
            tf.sort_unstable();
            assert_eq!(te, tf, "[{name}] fast profile changed the top-{K} set");
        }
    }
}

/// The full soundness chain in the fast profile: quantized envelopes +
/// fast kernels + the full-`f32` item linear partials must keep the pruned
/// scan bit-identical to fast brute force (same ids, same logit bits).
#[test]
fn fast_pruned_retrieval_is_bit_identical_to_fast_brute_force() {
    for (vi, (name, ablation)) in Ablation::table5_variants().into_iter().enumerate() {
        let (_, fast, layout) = build_pair(ablation, 211 + vi as u64);
        let fast = Arc::new(fast);
        let index = CatalogIndex::build(Arc::clone(&fast), layout, 16);
        let hist = [5u32, 140, 66];
        let inst = build_instance(&layout, 2, 0, &hist, MAX_SEQ, 0.0);
        let mut scratch = Scratch::new();
        let view = fast.history_view(&inst.dyn_idx, &mut scratch);
        let pruned = index.retrieve(2, &view, 10).expect("valid retrieval");
        let brute = index.retrieve_brute(2, &view, 10).expect("valid retrieval");
        assert_eq!(pruned.items.len(), brute.items.len(), "[{name}] result length");
        for (rank, (p, b)) in pruned.items.iter().zip(&brute.items).enumerate() {
            assert_eq!(p.item, b.item, "[{name}] item id diverges at rank {rank}");
            assert_eq!(
                p.score.to_bits(),
                b.score.to_bits(),
                "[{name}] logit bits diverge at rank {rank}"
            );
        }
        assert_eq!(
            brute.items_scored, layout.n_items,
            "[{name}] brute force must score the whole catalog"
        );
    }
}
