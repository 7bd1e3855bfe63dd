//! Checkpoint → frozen parity: a trained SeqFM saved to a checkpoint and
//! reloaded as a `FrozenSeqFm` must produce logits **bit-for-bit identical**
//! to the graph path (`SeqModel::forward` with `training = false`), across
//! every Table-V ablation variant.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::{Graph, ParamStore};
use seqfm_core::{
    Ablation, FrozenSeqFm, Scorer, Scratch, SeqFm, SeqFmConfig, SeqModel, TrainConfig,
};
use seqfm_data::{
    build_instance, ranking::RankingConfig, Batch, FeatureLayout, LeaveOneOut, NegativeSampler,
    Scale,
};
use seqfm_nn::checkpoint;

fn tiny_data() -> (seqfm_data::Dataset, LeaveOneOut, FeatureLayout, NegativeSampler) {
    let mut cfg = RankingConfig::gowalla(Scale::Small);
    cfg.n_users = 16;
    cfg.n_items = 40;
    cfg.min_len = 6;
    cfg.max_len = 10;
    let ds = seqfm_data::ranking::generate(&cfg).expect("valid config");
    let split = LeaveOneOut::split(&ds);
    let layout = FeatureLayout::of(&ds);
    let seen = (0..ds.n_users).map(|u| split.seen_items(u)).collect();
    let sampler = NegativeSampler::new(ds.n_items, seen);
    (ds, split, layout, sampler)
}

fn eval_batch(layout: &FeatureLayout, max_seq: usize) -> Batch {
    Batch::try_from_instances(&[
        build_instance(layout, 0, 7, &[1, 2, 5], max_seq, 1.0),
        build_instance(layout, 3, 39, &[], max_seq, 0.0), // cold start: all padding
        build_instance(layout, 15, 0, &[4, 9, 2, 7, 1, 3, 8, 11], max_seq, 1.0),
    ])
    .expect("valid batch")
}

#[test]
fn trained_checkpoints_reload_frozen_with_identical_logits() {
    let (_, split, layout, sampler) = tiny_data();
    let max_seq = 6;
    for (name, ablation) in Ablation::table5_variants() {
        let cfg = SeqFmConfig { d: 8, max_seq, dropout: 0.1, ablation, ..Default::default() };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
        // A couple of real training epochs so the checkpoint holds genuinely
        // trained (non-initialisation) weights.
        let tc = TrainConfig { epochs: 2, batch_size: 64, lr: 1e-2, max_seq, ..Default::default() };
        let report = seqfm_core::train_ranking(&model, &mut ps, &split, &layout, &sampler, &tc);
        assert_eq!(report.epoch_losses.len(), 2, "{name}: training did not run");

        let blob = checkpoint::save(&ps);
        let frozen = FrozenSeqFm::from_checkpoint(&blob, &layout, cfg)
            .unwrap_or_else(|e| panic!("{name}: checkpoint → frozen failed: {e}"));

        let batch = eval_batch(&layout, max_seq);
        let mut g = Graph::new();
        let y = model.forward(&mut g, &ps, &batch, false, &mut rng);
        let expect = g.value(y).data().to_vec();
        let mut scratch = Scratch::new();
        let got = frozen.score(&batch, &mut scratch);
        assert_eq!(expect.len(), got.len(), "{name}: logit count");
        for (i, (e, f)) in expect.iter().zip(got).enumerate() {
            assert_eq!(
                e.to_bits(),
                f.to_bits(),
                "{name}: logit {i} not bit-identical ({e} vs {f})"
            );
        }
    }
}

#[test]
fn checkpoint_file_roundtrips_into_frozen() {
    let (_, _, layout, _) = tiny_data();
    let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
    let dir = std::env::temp_dir().join("seqfm_frozen_parity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trained.sqfm");
    checkpoint::save_file(&ps, &path).expect("save_file");
    let frozen = FrozenSeqFm::from_checkpoint_file(&path, &layout, cfg).expect("load");
    std::fs::remove_file(&path).unwrap();

    let batch = eval_batch(&layout, 6);
    let mut scratch = Scratch::new();
    let from_file = frozen.score(&batch, &mut scratch).to_vec();
    let live = FrozenSeqFm::freeze(&model, &ps);
    let direct = live.score(&batch, &mut scratch).to_vec();
    assert_eq!(from_file, direct);
}

#[test]
fn frozen_rejects_mismatched_checkpoints() {
    let layout = FeatureLayout { n_users: 4, n_items: 9 };
    let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let _model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
    let blob = checkpoint::save(&ps);
    // Wrong layout → shape mismatch, surfaced as an error, not a panic.
    let bigger = FeatureLayout { n_users: 5, n_items: 9 };
    assert!(FrozenSeqFm::from_checkpoint(&blob, &bigger, cfg).is_err());
    // Garbage → decode error.
    assert!(FrozenSeqFm::from_checkpoint(b"not a checkpoint", &layout, cfg).is_err());
}
