//! `train`: the paper's own loop (Eq. 21, Fig. 4) — `train_ranking_with_hook`
//! on the gowalla-sim preset, batch 128, `workers = 1`, timed per epoch
//! through the hook. `autograd`, `nn::Adam` and `data` sampling; no serving
//! layer involved.

use crate::fixture::{self, Opts, Phase, MAX_SEQ};
use crate::harness::{self, Outcome, Tracer};
use crate::layers::{self, BprSample};
use rand::Rng;
use seqfm_autograd::ParamStore;
use seqfm_core::{train_ranking_with_hook, SeqFm, TrainConfig};
use seqfm_data::ranking::{self, RankingConfig};
use seqfm_data::{FeatureLayout, LeaveOneOut, NegativeSampler, Scale};

const BATCH: usize = 128;
/// `train.final_loss` is the loss of this epoch (1-based) of the timed run,
/// which always trains at least this long, so the value does not depend on
/// how many epochs the window had time for.
const LOSS_EPOCH: usize = 8;
/// `train.final_loss` at `--seed 1`, recorded when the benchmark was defined.
const REF_FINAL_LOSS_SEED1: f64 = 0.478_629_692_324_570_26;
const REPLAY_STEPS: usize = 16;

struct Fixture {
    split: LeaveOneOut,
    layout: FeatureLayout,
    sampler: NegativeSampler,
    positions: usize,
    model: SeqFm,
    ps: ParamStore,
    /// Loss bits of one epoch trained from the initial state during set-up.
    warm_loss_bits: u64,
}

/// The gowalla-sim preset with every user at the preset's mean length, so
/// an epoch is the same number of instances at every seed.
fn data_cfg(seed: u64) -> RankingConfig {
    let mut cfg = RankingConfig::gowalla(Scale::Small);
    let mean_len = (cfg.min_len + cfg.max_len) / 2;
    cfg.min_len = mean_len;
    cfg.max_len = mean_len;
    cfg.seed = seqfm_parallel::shard_seed(seed, fixture::STREAM_TRAFFIC);
    cfg
}

fn train_cfg(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: BATCH,
        max_seq: MAX_SEQ,
        seed,
        workers: 1,
        ..Default::default()
    }
}

/// Data generation, split, sampler, model build, and one warm-up epoch on a
/// throwaway copy of the model (fills the graph's buffer pools; its loss is
/// the reference the timed run's first epoch must reproduce bit for bit).
fn setup(seed: u64) -> Fixture {
    let ds = ranking::generate(&data_cfg(seed)).expect("preset is valid");
    let split = LeaveOneOut::split(&ds);
    let layout = FeatureLayout::of(&ds);
    let seen = (0..ds.n_users).map(|u| split.seen_items(u)).collect();
    let sampler = NegativeSampler::new(ds.n_items, seen);
    let positions = split.train.iter().map(|s| s.len().saturating_sub(1)).sum();
    let (warm_model, mut warm_ps) = fixture::build_model(seed, &layout);
    let warm = train_ranking_with_hook(
        &warm_model,
        &mut warm_ps,
        &split,
        &layout,
        &sampler,
        &train_cfg(seed, 1),
        |_, _| false,
    );
    let (model, ps) = fixture::build_model(seed, &layout);
    let warm_loss_bits = warm.final_loss().to_bits();
    Fixture { split, layout, sampler, positions, model, ps, warm_loss_bits }
}

/// Trains until `seconds` have passed and at least `min_epochs` are done.
/// Returns the window and the per-epoch losses.
fn drive(
    fx: &mut Fixture,
    seed: u64,
    seconds: f64,
    min_epochs: usize,
    tracer: &mut Tracer,
) -> (Phase, Vec<f64>) {
    let mut phase = Phase::start(1_024, fx.positions as f64);
    let deadline = harness::now_ns() + (seconds * 1e9) as u64;
    let mut epoch_start = harness::now_ns();
    let mut span = tracer.begin("train.epoch", 0);
    let report = train_ranking_with_hook(
        &fx.model,
        &mut fx.ps,
        &fx.split,
        &fx.layout,
        &fx.sampler,
        &train_cfg(seed, 100_000),
        |epoch, _| {
            tracer.end(span);
            let now = harness::now_ns();
            phase.lat_us.push((now - epoch_start) as f64 / 1e3);
            phase.timeline.done(now);
            epoch_start = now;
            let stop = now >= deadline && epoch + 1 >= min_epochs;
            span = if stop { u32::MAX } else { tracer.begin("train.epoch", epoch as u32 + 1) };
            stop
        },
    );
    (phase, report.epoch_losses)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut fx, setup_s) = harness::repeated_setup(|| setup(opts.seed));
    out.setup_s = setup_s;

    let mut tracer = if opts.trace { Tracer::on(10_000) } else { Tracer::off() };
    let min_epochs = if opts.smoke { 2 } else { LOSS_EPOCH };
    let mut losses: Vec<f64> = Vec::new();
    let (untraced, traced) = fixture::run_windows(opts, &mut tracer, |seconds, tracer| {
        // Only the first window starts from the initial state; a traced
        // second window just keeps training.
        let min = if losses.is_empty() { min_epochs } else { 1 };
        let (phase, epoch_losses) = drive(&mut fx, opts.seed, seconds, min, tracer);
        if losses.is_empty() {
            losses = epoch_losses;
        }
        phase
    });
    let epochs = untraced.lat_us.len() + traced.as_ref().map_or(0, |t| t.lat_us.len());
    out.attempted = (epochs * fx.positions) as u64;

    let final_loss = losses[min_epochs - 1];
    out.attempted += 3;
    out.check(final_loss < losses[0], || {
        format!("train: loss did not fall ({} → {final_loss})", losses[0])
    });
    out.check(losses[0].to_bits() == fx.warm_loss_bits, || {
        "train: first-epoch loss differs from the set-up run at the same seed".into()
    });
    let pinned = opts.seed == 1 && !opts.smoke;
    out.check(!pinned || (final_loss - REF_FINAL_LOSS_SEED1).abs() <= 1e-3, || {
        format!("train: final loss {final_loss} is not within 1e-3 of {REF_FINAL_LOSS_SEED1}")
    });
    out.notes.push(format!(
        "{epochs} epochs of {} instances; loss {:.6} → {final_loss:.6} (bits {:#018x})",
        fx.positions,
        losses[0],
        final_loss.to_bits()
    ));
    fixture::summarise(&mut out, untraced, traced);
    // The delay before a minibatch is reflected in the parameters.
    let steps_per_epoch = fx.positions.div_ceil(BATCH);
    out.fresh_p50_us = out.op_p50_us / steps_per_epoch as f64;

    if opts.trace {
        out.layer("train.final_loss", final_loss);
        out.layer("train.steps", (min_epochs * steps_per_epoch) as f64);
        replay(&fx, opts.seed, &mut tracer, &mut out);
        layers::tensor(&mut out);
        crate::finish_trace("train", &tracer, &mut out);
    }
    out
}

/// The layer replay: `data` generation, then minibatches of the training
/// positions through build batch → forward → backward → dense Adam step.
fn replay(fx: &Fixture, seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let cfg = data_cfg(seed);
    let generate_us = harness::p50_us(1, 5, || {
        std::hint::black_box(ranking::generate(&cfg).expect("preset is valid").n_users);
    });
    out.layer("data.generate_ms", generate_us / 1e3);

    let mut rng = fixture::rng(seed, fixture::STREAM_PROBE);
    let samples: Vec<BprSample> = (0..BATCH * REPLAY_STEPS)
        .map(|_| {
            let u = rng.gen_range(0..fx.split.train.len());
            let seq = &fx.split.train[u];
            let i = rng.gen_range(1..seq.len());
            BprSample {
                user: u as u32,
                pos: seq[i].item,
                neg: fx.sampler.sample(u, &mut rng),
                history: seq[..i].iter().map(|e| e.item).collect(),
            }
        })
        .collect();
    let (model, mut ps) = fixture::build_model(seed, &fx.layout);
    layers::bpr_replay("replay", &model, &mut ps, &fx.layout, &samples, BATCH, false, tracer, out);
}
