//! Data-parallel training contracts.
//!
//! * `workers == 1` must reproduce the **serial** loss trajectory bit for
//!   bit — asserted against an independently written reference loop that
//!   re-implements the §IV BPR training semantics from public APIs, so a
//!   regression that silently reroutes the single-worker path through the
//!   sharded machinery (different RNG streams!) is caught immediately.
//! * `workers == 4` must be deterministic (the trajectory is a pure
//!   function of the config, never of thread scheduling) and must train as
//!   well as serial within tolerance.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use seqfm_autograd::{Graph, ParamStore};
use seqfm_core::{
    train_ctr, train_ranking, train_rating, SeqFm, SeqFmConfig, SeqModel, TrainConfig,
};
use seqfm_data::{
    build_instance, ranking::RankingConfig, Batch, FeatureLayout, LeaveOneOut, NegativeSampler,
    Scale,
};
use seqfm_nn::{Adam, Optimizer};

fn tiny_ranking_setup() -> (LeaveOneOut, FeatureLayout, NegativeSampler) {
    let mut cfg = RankingConfig::gowalla(Scale::Small);
    cfg.n_users = 24;
    cfg.n_items = 60;
    cfg.min_len = 6;
    cfg.max_len = 12;
    let ds = seqfm_data::ranking::generate(&cfg).unwrap();
    let split = LeaveOneOut::split(&ds);
    let layout = FeatureLayout::of(&ds);
    let seen = (0..ds.n_users).map(|u| split.seen_items(u)).collect();
    let sampler = NegativeSampler::new(ds.n_items, seen);
    (split, layout, sampler)
}

fn fresh_model(layout: &FeatureLayout) -> (SeqFm, ParamStore) {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(33);
    let cfg = SeqFmConfig { d: 8, max_seq: 8, dropout: 0.1, ..Default::default() };
    let model = SeqFm::new(&mut ps, &mut rng, layout, cfg);
    (model, ps)
}

fn train_cfg(workers: usize) -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 32,
        lr: 1e-2,
        max_seq: 8,
        ctr_negatives: 3,
        seed: 11,
        workers,
    }
}

/// An independent re-implementation of the serial BPR loop (paper §IV-A):
/// one continuous RNG stream seeded from `cfg.seed` drives shuffling,
/// negative sampling, and dropout, exactly as the pre-parallel trainer did;
/// each pair is scored by one `forward_pair` (the negatives share their
/// positives' histories).
fn reference_serial_ranking(
    model: &SeqFm,
    ps: &mut ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    sampler: &NegativeSampler,
    cfg: &TrainConfig,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut positions: Vec<(usize, usize)> = Vec::new();
    for (u, seq) in split.train.iter().enumerate() {
        for i in 1..seq.len() {
            positions.push((u, i));
        }
    }
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        positions.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in positions.chunks(cfg.batch_size) {
            let mut pos = Vec::with_capacity(chunk.len());
            let mut neg = Vec::with_capacity(chunk.len());
            for &(u, i) in chunk {
                let hist: Vec<u32> = split.train[u][..i].iter().map(|e| e.item).collect();
                let target = split.train[u][i].item;
                let negative = sampler.sample(u, &mut rng);
                pos.push(build_instance(layout, u as u32, target, &hist, cfg.max_seq, 1.0));
                neg.push(build_instance(layout, u as u32, negative, &hist, cfg.max_seq, 0.0));
            }
            let pb = Batch::try_from_instances(&pos).unwrap();
            let nb = Batch::try_from_instances(&neg).unwrap();
            let mut g = Graph::new();
            let (y_pos, y_neg) = model.forward_pair(&mut g, ps, &pb, &nb, true, &mut rng);
            let diff = g.sub(y_pos, y_neg);
            let ndiff = g.neg(diff);
            let per = g.softplus(ndiff);
            let loss = g.mean_all(per);
            epoch_loss += g.scalar_value(loss) as f64;
            batches += 1;
            ps.zero_grads();
            g.backward(loss, ps);
            opt.step(ps).expect("finite gradients");
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f64);
    }
    epoch_losses
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: epoch count differs");
    for (e, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: epoch {e} loss diverges ({x} vs {y})");
    }
}

#[test]
fn one_worker_reproduces_the_serial_trajectory_bit_for_bit() {
    let (split, layout, sampler) = tiny_ranking_setup();
    let (model, ps) = fresh_model(&layout);
    let cfg = train_cfg(1);

    let mut ps_trainer = ps.worker_clone();
    let report = train_ranking(&model, &mut ps_trainer, &split, &layout, &sampler, &cfg);

    let mut ps_reference = ps.worker_clone();
    let expect =
        reference_serial_ranking(&model, &mut ps_reference, &split, &layout, &sampler, &cfg);

    assert_bitwise_eq(&report.epoch_losses, &expect, "workers=1 vs serial reference");
    // Not just losses: every trained parameter must match bit for bit.
    for (id, p) in ps_trainer.iter() {
        let want = ps_reference.value(id);
        for (i, (a, b)) in p.value().data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "param `{}`[{}] diverges ({a} vs {b})",
                p.name(),
                i
            );
        }
    }
}

#[test]
fn four_workers_are_deterministic_and_train_within_tolerance() {
    let (split, layout, sampler) = tiny_ranking_setup();
    let (model, ps) = fresh_model(&layout);

    let run = |workers: usize| {
        let mut ps_run = ps.worker_clone();
        train_ranking(&model, &mut ps_run, &split, &layout, &sampler, &train_cfg(workers))
    };

    let serial = run(1);
    let par_a = run(4);
    let par_b = run(4);

    // Deterministic: shard layout + per-shard RNG streams + ordered
    // all-reduce make the trajectory independent of thread scheduling.
    assert_bitwise_eq(&par_a.epoch_losses, &par_b.epoch_losses, "workers=4 repeat");

    // Trains: the loss goes down, and lands near the serial result. The
    // trajectories differ (different RNG streams), so this is a tolerance
    // check, not an equality.
    assert!(
        par_a.final_loss() < par_a.epoch_losses[0],
        "parallel loss did not decrease: {:?}",
        par_a.epoch_losses
    );
    let rel = (par_a.final_loss() - serial.final_loss()).abs() / serial.final_loss();
    assert!(
        rel < 0.35,
        "workers=4 final loss {:.4} too far from serial {:.4} (rel {rel:.3})",
        par_a.final_loss(),
        serial.final_loss()
    );
    assert_eq!(par_a.steps, serial.steps, "same step count regardless of workers");
}

#[test]
fn parallel_ctr_and_rating_are_deterministic_and_learn() {
    let (split, layout, sampler) = tiny_ranking_setup();
    let (model, ps) = fresh_model(&layout);
    let cfg = train_cfg(4);

    let run_ctr = || {
        let mut ps_run = ps.worker_clone();
        train_ctr(&model, &mut ps_run, &split, &layout, &sampler, &cfg)
    };
    let a = run_ctr();
    let b = run_ctr();
    assert_bitwise_eq(&a.epoch_losses, &b.epoch_losses, "ctr workers=4 repeat");
    assert!(a.final_loss() < a.epoch_losses[0], "ctr loss did not decrease");

    let run_rating = || {
        let mut ps_run = ps.worker_clone();
        train_rating(&model, &mut ps_run, &split, &layout, &cfg)
    };
    let a = run_rating();
    let b = run_rating();
    assert_bitwise_eq(&a.epoch_losses, &b.epoch_losses, "rating workers=4 repeat");
    assert!(a.final_loss() < a.epoch_losses[0], "rating loss did not decrease");
    assert!(a.target_offset != 0.0, "rating offset centring must be active");
}
