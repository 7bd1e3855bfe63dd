//! Cross-crate contracts: every model in the registry honours the `SeqModel`
//! interface and its documented sequence semantics.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::{Graph, ParamStore};
use seqfm_baselines::registry::{build, ModelKind};
use seqfm_core::SeqModel;
use seqfm_data::{build_instance, Batch, FeatureLayout};

const ALL: [ModelKind; 12] = [
    ModelKind::Fm,
    ModelKind::WideDeep,
    ModelKind::DeepCross,
    ModelKind::Nfm,
    ModelKind::Afm,
    ModelKind::SasRec,
    ModelKind::Tfm,
    ModelKind::Din,
    ModelKind::XDeepFm,
    ModelKind::Rrn,
    ModelKind::Hofm,
    ModelKind::SeqFm,
];

/// Models whose score must change when the history *order* changes
/// (position-aware or recurrence-based).
const ORDER_SENSITIVE: [ModelKind; 3] = [ModelKind::SasRec, ModelKind::Rrn, ModelKind::SeqFm];

fn layout() -> FeatureLayout {
    FeatureLayout { n_users: 8, n_items: 20 }
}

fn score(model: &dyn SeqModel, ps: &ParamStore, hist: &[u32]) -> f32 {
    let inst = build_instance(&layout(), 1, 5, hist, 6, 1.0);
    let b = Batch::try_from_instances(&[inst]).expect("valid batch");
    let mut rng = StdRng::seed_from_u64(0);
    let mut g = Graph::new();
    let y = model.forward(&mut g, ps, &b, false, &mut rng);
    g.value(y).data()[0]
}

#[test]
fn every_model_is_inference_deterministic() {
    for kind in ALL {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let model = build(kind, &mut ps, &mut rng, &layout(), 8, 6);
        let a = score(model.as_ref(), &ps, &[2, 7, 11]);
        let b = score(model.as_ref(), &ps, &[2, 7, 11]);
        assert_eq!(a, b, "{kind:?} is non-deterministic at inference");
        assert!(a.is_finite(), "{kind:?} emitted non-finite score");
    }
}

#[test]
fn order_sensitivity_matches_model_class() {
    for kind in ALL {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let model = build(kind, &mut ps, &mut rng, &layout(), 8, 6);
        // same multiset, different order, same last item (so TFM is also
        // expected to be invariant here)
        let a = score(model.as_ref(), &ps, &[2, 7, 11, 4]);
        let b = score(model.as_ref(), &ps, &[11, 7, 2, 4]);
        let sensitive = ORDER_SENSITIVE.contains(&kind);
        if sensitive {
            assert!(
                (a - b).abs() > 1e-7,
                "{kind:?} should be order-sensitive but scored {a} == {b}"
            );
        } else {
            assert!(
                (a - b).abs() < 1e-4,
                "{kind:?} should be order-invariant but scored {a} vs {b}"
            );
        }
    }
}

#[test]
fn every_model_reacts_to_the_candidate() {
    for kind in ALL {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let model = build(kind, &mut ps, &mut rng, &layout(), 8, 6);
        let l = layout();
        let mk = |cand: u32| {
            let inst = build_instance(&l, 1, cand, &[2, 7], 6, 1.0);
            Batch::try_from_instances(&[inst]).expect("valid batch")
        };
        let mut g = Graph::new();
        let mut rng2 = StdRng::seed_from_u64(0);
        let b5 = mk(5);
        let b9 = mk(9);
        let y5 = model.forward(&mut g, &ps, &b5, false, &mut rng2);
        let y9 = model.forward(&mut g, &ps, &b9, false, &mut rng2);
        let (a, b) = (g.value(y5).data()[0], g.value(y9).data()[0]);
        assert!((a - b).abs() > 1e-8, "{kind:?} ignores the candidate item");
    }
}

#[test]
fn every_model_trains_one_step_without_panic() {
    use seqfm_core::{train_ranking, TrainConfig};
    use seqfm_data::{LeaveOneOut, NegativeSampler, Scale};
    let mut cfg = seqfm_data::ranking::RankingConfig::gowalla(Scale::Small);
    cfg.n_users = 10;
    cfg.n_items = 20;
    cfg.n_clusters = 5;
    cfg.min_len = 5;
    cfg.max_len = 8;
    let ds = seqfm_data::ranking::generate(&cfg).expect("valid");
    let split = LeaveOneOut::split(&ds);
    let l = FeatureLayout::of(&ds);
    let seen = (0..ds.n_users).map(|u| split.seen_items(u)).collect();
    let sampler = NegativeSampler::new(ds.n_items, seen);
    for kind in ALL {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let model = build(kind, &mut ps, &mut rng, &l, 4, 6);
        let tc =
            TrainConfig { epochs: 1, batch_size: 32, lr: 1e-3, max_seq: 6, ..Default::default() };
        let report = train_ranking(model.as_ref(), &mut ps, &split, &l, &sampler, &tc);
        assert_eq!(report.epoch_losses.len(), 1, "{kind:?}");
        assert!(report.final_loss().is_finite(), "{kind:?} diverged in one epoch");
        assert!(!ps.has_non_finite(), "{kind:?} produced non-finite parameters");
    }
}

/// One BPR step from a seeded RNG, paired or as two `forward`s: the bits
/// of `y⁺`, `y⁻`, the loss and every parameter's gradient.
fn bpr_step_bits(model: &dyn SeqModel, ps: &mut ParamStore, paired: bool) -> Vec<Vec<u32>> {
    let l = layout();
    let batch = |items: [u32; 3]| {
        let hists: [&[u32]; 3] = [&[2, 7, 11], &[], &[4, 4, 9, 1, 3, 12, 5]];
        let insts: Vec<_> =
            (0..3).map(|i| build_instance(&l, i as u32, items[i], hists[i], 6, 1.0)).collect();
        Batch::try_from_instances(&insts).expect("valid batch")
    };
    let (pos, neg) = (batch([5, 0, 13]), batch([9, 17, 2]));
    let mut rng = StdRng::seed_from_u64(21);
    let mut g = Graph::new();
    let (y_pos, y_neg) = if paired {
        model.forward_pair(&mut g, ps, &pos, &neg, true, &mut rng)
    } else {
        let y_pos = model.forward(&mut g, ps, &pos, true, &mut rng);
        (y_pos, model.forward(&mut g, ps, &neg, true, &mut rng))
    };
    let loss = seqfm_core::train::bpr_loss(&mut g, y_pos, y_neg);
    ps.zero_grads();
    g.backward(loss, ps);
    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut out = vec![bits(g.value(y_pos).data()), bits(g.value(y_neg).data())];
    out.push(bits(g.value(loss).data()));
    out.extend(ps.iter().map(|(_, p)| bits(p.grad().data())));
    out
}

#[test]
fn forward_pair_is_two_forwards_for_every_baseline_and_scores_alike_for_seqfm() {
    for kind in ALL {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let model = build(kind, &mut ps, &mut rng, &layout(), 8, 6);
        let two = bpr_step_bits(model.as_ref(), &mut ps, false);
        let pair = bpr_step_bits(model.as_ref(), &mut ps, true);
        // SeqFM (reached through the registry's box) shares its history
        // side, so only its gradients may move, by rounding; every baseline
        // runs the default, two `forward`s, to the bit.
        let compared = if kind == ModelKind::SeqFm { 3 } else { two.len() };
        for (i, (p, t)) in pair.iter().zip(&two).take(compared).enumerate() {
            assert_eq!(p, t, "{kind:?}: output {i} of the pair moved");
        }
        if let Some(w_dyn) = ps.id_of("seqfm.w_dynamic.table") {
            // The shared `Σ w˙` cancels exactly in ŷ⁺ − ŷ⁻.
            let at = 3 + ps.iter().position(|(id, _)| id == w_dyn).expect("registered");
            assert!(pair[at].iter().all(|&b| f32::from_bits(b) == 0.0), "w˙ gradient not zero");
        }
    }
}
