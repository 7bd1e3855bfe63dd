//! Task-specific training loops (paper §IV), serial or data-parallel.
//!
//! All three tasks share the same skeleton: enumerate training positions
//! (user, prefix-length) pairs from the leave-one-out training split, build
//! mini-batches of [`seqfm_data::Instance`]s, run a forward pass of any
//! [`SeqModel`], apply the task loss, and step Adam (§IV-D).
//!
//! * ranking — BPR pairwise loss over (positive, sampled-negative) pairs
//!   (Eq. 21). A negative keeps its positive's user and history, so each
//!   step runs one paired pass, [`SeqModel::forward_pair`]: SeqFM builds
//!   the history side (the dynamic view, the cross view's history
//!   projections, `w˙`) once for both batches;
//! * CTR — log loss with `ctr_negatives` sampled negatives per positive
//!   (Eq. 24, §IV-D uses 5);
//! * rating — squared error (Eq. 26), no negative sampling.
//!
//! ## Data-parallel training
//!
//! With [`TrainConfig::workers`] > 1, every mini-batch is split into
//! contiguous shards over a scoped thread pool. Each worker refreshes its
//! own [`ParamStore`] from the master snapshot, builds its shard's
//! instances with a **per-shard RNG stream** derived from
//! [`TrainConfig::seed`] (see [`seqfm_parallel::shard_seed`]), runs
//! forward/backward on its own [`Graph`], and scales its shard loss by the
//! shard fraction so that the summed gradients equal the full-batch
//! gradient. The master then merges worker gradients **in worker order** (a
//! synchronous all-reduce) and takes one Adam step. The trajectory is a
//! pure function of the config — it never depends on thread scheduling —
//! and `workers == 1` takes the exact pre-existing serial path, bit for
//! bit.

use crate::SeqModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use seqfm_autograd::{Graph, ParamStore, Var};
use seqfm_data::{build_instance, Batch, FeatureLayout, Instance, LeaveOneOut, NegativeSampler};
use seqfm_nn::{Adam, Optimizer};
use seqfm_parallel::{partition, shard_seed, ThreadPool};
use seqfm_tensor::Tensor;
use std::time::Instant;

/// Trainer configuration shared by all tasks.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training positions.
    pub epochs: usize,
    /// Mini-batch size (paper: 512 on GPU; smaller default for CPU).
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-4 at full scale; larger at small
    /// scale — see EXPERIMENTS.md).
    pub lr: f32,
    /// Maximum dynamic sequence length n˙ fed to the models.
    pub max_seq: usize,
    /// Negatives per positive for CTR training (paper: 5).
    pub ctr_negatives: usize,
    /// RNG seed controlling shuffling, negative sampling, and dropout.
    pub seed: u64,
    /// Data-parallel training workers. `1` (the default) is the serial
    /// path; `w > 1` splits every mini-batch into `w` shards trained
    /// against a shared parameter snapshot with a synchronous gradient
    /// all-reduce. Defaults to the `SEQFM_WORKERS` environment variable
    /// when set, else 1 — never to the machine's core count, so default
    /// trajectories stay reproducible across hosts.
    pub workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 128,
            lr: 3e-3,
            max_seq: 20,
            ctr_negatives: 5,
            seed: 42,
            workers: env_workers(),
        }
    }
}

/// `SEQFM_WORKERS` when set (same parse as the kernel pool's sizing —
/// see [`seqfm_parallel::env_workers`]), else 1: training stays serial
/// unless explicitly opted in, so default trajectories are reproducible
/// across hosts.
fn env_workers() -> usize {
    seqfm_parallel::env_workers().unwrap_or(1)
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds spent in the loop (Fig. 4 measurements).
    pub seconds: f64,
    /// Optimizer steps taken.
    pub steps: usize,
    /// Constant subtracted from regression targets during training (the
    /// training-set mean rating); add it back to raw predictions. Zero for
    /// ranking/CTR.
    pub target_offset: f32,
}

impl TrainReport {
    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f64 {
        *self.epoch_losses.last().expect("at least one epoch")
    }
}

/// All (user, prefix_len) training positions with non-empty history.
fn training_positions(split: &LeaveOneOut) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (u, seq) in split.train.iter().enumerate() {
        for i in 1..seq.len() {
            out.push((u, i));
        }
    }
    out
}

fn history(split: &LeaveOneOut, u: usize, prefix: usize) -> Vec<u32> {
    split.train[u][..prefix].iter().map(|e| e.item).collect()
}

fn shard_batch(instances: &[Instance]) -> Batch {
    Batch::try_from_instances(instances).expect("training batches are non-empty and rectangular")
}

/// The BPR pairwise loss (Eq. 21) over paired positive / negative scores:
/// the mean of −log σ(ŷ⁺ − ŷ⁻) = softplus(−(ŷ⁺ − ŷ⁻)). The offline loop and
/// the online trainer both end their step here, so "replay ≡ online ≡
/// offline" op order is this one body.
pub fn bpr_loss(g: &mut Graph, y_pos: Var, y_neg: Var) -> Var {
    let diff = g.sub(y_pos, y_neg);
    let ndiff = g.neg(diff);
    let per = g.softplus(ndiff);
    g.mean_all(per)
}

/// Builds the BPR pairwise loss (Eq. 21) for one shard of positions,
/// drawing one negative per positive from `rng`. The negatives share their
/// positives' histories, so one [`SeqModel::forward_pair`] scores both
/// batches. Shared verbatim by the serial path (shard == whole chunk, `rng`
/// == the run RNG) and by every data-parallel worker (shard slice,
/// per-shard stream), so both consume randomness and emit graph ops in the
/// identical order.
#[allow(clippy::too_many_arguments)]
fn ranking_shard_loss(
    model: &dyn SeqModel,
    g: &mut Graph,
    ps: &ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    sampler: &NegativeSampler,
    cfg: &TrainConfig,
    shard: &[(usize, usize)],
    rng: &mut StdRng,
) -> Var {
    let mut pos = Vec::with_capacity(shard.len());
    let mut neg = Vec::with_capacity(shard.len());
    for &(u, i) in shard {
        let hist = history(split, u, i);
        let target = split.train[u][i].item;
        let negative = sampler.sample(u, rng);
        pos.push(build_instance(layout, u as u32, target, &hist, cfg.max_seq, 1.0));
        neg.push(build_instance(layout, u as u32, negative, &hist, cfg.max_seq, 0.0));
    }
    let pb = shard_batch(&pos);
    let nb = shard_batch(&neg);
    let (y_pos, y_neg) = model.forward_pair(g, ps, &pb, &nb, true, rng);
    bpr_loss(g, y_pos, y_neg)
}

/// Builds the CTR log loss (Eq. 24) for one shard of positions, sampling
/// [`TrainConfig::ctr_negatives`] negatives per positive.
#[allow(clippy::too_many_arguments)]
fn ctr_shard_loss(
    model: &dyn SeqModel,
    g: &mut Graph,
    ps: &ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    sampler: &NegativeSampler,
    cfg: &TrainConfig,
    shard: &[(usize, usize)],
    rng: &mut StdRng,
) -> Var {
    let group = 1 + cfg.ctr_negatives;
    let mut insts: Vec<Instance> = Vec::with_capacity(shard.len() * group);
    for &(u, i) in shard {
        let hist = history(split, u, i);
        let target = split.train[u][i].item;
        insts.push(build_instance(layout, u as u32, target, &hist, cfg.max_seq, 1.0));
        for _ in 0..cfg.ctr_negatives {
            let negative = sampler.sample(u, rng);
            insts.push(build_instance(layout, u as u32, negative, &hist, cfg.max_seq, 0.0));
        }
    }
    let batch = shard_batch(&insts);
    let logits = model.forward(g, ps, &batch, true, rng);
    let per = g.bce_with_logits(logits, &batch.targets);
    g.mean_all(per)
}

/// Builds the squared-error loss (Eq. 26) for one shard of positions, with
/// targets centred on `offset`.
#[allow(clippy::too_many_arguments)]
fn rating_shard_loss(
    model: &dyn SeqModel,
    g: &mut Graph,
    ps: &ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    cfg: &TrainConfig,
    offset: f32,
    shard: &[(usize, usize)],
    rng: &mut StdRng,
) -> Var {
    let insts: Vec<Instance> = shard
        .iter()
        .map(|&(u, i)| {
            let hist = history(split, u, i);
            let e = split.train[u][i];
            build_instance(layout, u as u32, e.item, &hist, cfg.max_seq, e.rating - offset)
        })
        .collect();
    let batch = shard_batch(&insts);
    let pred = model.forward(g, ps, &batch, true, rng);
    let targets = g.input(Tensor::vector(batch.targets.clone()));
    let err = g.sub(pred, targets);
    let sq = g.square(err);
    g.mean_all(sq)
}

/// Per-worker state of data-parallel training, allocated once per run.
struct WorkerSlot {
    ps: ParamStore,
    /// Reused tape: [`Graph::reset`] between steps keeps the worker's
    /// forward/backward passes allocation-free once its pool is warm.
    graph: Graph,
    loss: f64,
}

/// The pool + worker stores of one data-parallel training run. `None` when
/// the config asks for a single worker (serial path).
struct ParTrainer {
    pool: ThreadPool,
    slots: Vec<WorkerSlot>,
}

impl ParTrainer {
    fn new(master: &ParamStore, cfg: &TrainConfig) -> Option<Self> {
        if cfg.workers <= 1 {
            return None;
        }
        let w = cfg.workers.min(256);
        Some(ParTrainer {
            pool: ThreadPool::new(w),
            slots: (0..w)
                .map(|_| WorkerSlot { ps: master.worker_clone(), graph: Graph::new(), loss: 0.0 })
                .collect(),
        })
    }

    /// One synchronous data-parallel gradient step over `chunk`: shard,
    /// compute per-worker gradients against the master snapshot, all-reduce
    /// into `master` (gradients only — the caller owns the optimizer step).
    /// Returns the batch loss: the shard-fraction-weighted sum of shard
    /// means, i.e. the mean loss of the whole chunk.
    ///
    /// Deterministic by construction: shard boundaries come from
    /// [`partition`], each shard's RNG is seeded from `(seed, step, shard)`
    /// via [`shard_seed`], and the reduce walks workers in index order —
    /// thread scheduling never influences the result.
    fn step<F>(
        &mut self,
        master: &mut ParamStore,
        chunk: &[(usize, usize)],
        step: u64,
        seed: u64,
        shard_loss: &F,
    ) -> f64
    where
        F: Fn(&mut Graph, &ParamStore, &[(usize, usize)], &mut StdRng) -> Var + Sync,
    {
        let shards = partition(chunk.len(), self.slots.len());
        let n_shards = shards.len();
        let streams = self.slots.len() as u64;
        let master_ref: &ParamStore = master;
        let slots = &mut self.slots;
        self.pool.scope(|s| {
            for (sidx, (slot, shard)) in slots.iter_mut().zip(&shards).enumerate() {
                let shard_pos = &chunk[shard.clone()];
                let frac = shard_pos.len() as f32 / chunk.len() as f32;
                s.spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(shard_seed(seed, step * streams + sidx as u64));
                    let WorkerSlot { ps: wps, graph: g, loss: wloss } = slot;
                    wps.copy_values_from(master_ref);
                    wps.zero_grads();
                    g.reset();
                    let loss = shard_loss(g, wps, shard_pos, &mut rng);
                    let scaled = g.scale(loss, frac);
                    *wloss = g.scalar_value(scaled) as f64;
                    g.backward(scaled, wps);
                });
            }
        });
        master.zero_grads();
        let mut total = 0.0;
        for slot in &self.slots[..n_shards] {
            master.add_grads_from(&slot.ps);
            total += slot.loss;
        }
        total
    }
}

/// Shared epoch skeleton: serial when `par` is `None` (bit-identical to the
/// pre-parallel loop — same RNG, same op order), data-parallel otherwise.
#[allow(clippy::too_many_arguments)]
fn run_epochs<F>(
    ps: &mut ParamStore,
    positions: &mut [(usize, usize)],
    chunk_size: usize,
    cfg: &TrainConfig,
    mut after_epoch: impl FnMut(usize, &mut ParamStore) -> bool,
    shard_loss: F,
) -> (Vec<f64>, usize)
where
    F: Fn(&mut Graph, &ParamStore, &[(usize, usize)], &mut StdRng) -> Var + Sync,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut par = ParTrainer::new(ps, cfg);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut steps = 0usize;
    // One tape reused across every serial mini-batch: `reset()` recycles the
    // node buffers, so steady-state steps build their graphs without heap
    // allocations (the parallel path keeps a graph per worker slot).
    let mut graph = Graph::new();

    for _ in 0..cfg.epochs {
        positions.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in positions.chunks(chunk_size) {
            let loss_val = match &mut par {
                Some(par) => par.step(ps, chunk, steps as u64, cfg.seed, &shard_loss),
                None => {
                    let g = &mut graph;
                    g.reset();
                    let loss = shard_loss(g, ps, chunk, &mut rng);
                    let v = g.scalar_value(loss) as f64;
                    ps.zero_grads();
                    g.backward(loss, ps);
                    v
                }
            };
            epoch_loss += loss_val;
            batches += 1;
            opt.step(ps).expect("finite gradients");
            steps += 1;
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f64);
        if after_epoch(epoch_losses.len() - 1, ps) {
            break;
        }
    }
    (epoch_losses, steps)
}

/// Trains with the BPR pairwise ranking loss (Eq. 21):
/// `L = −Σ log σ(ŷ⁺ − ŷ⁻)`, negatives drawn uniformly from items the user
/// never interacted with.
pub fn train_ranking(
    model: &dyn SeqModel,
    ps: &mut ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    sampler: &NegativeSampler,
    cfg: &TrainConfig,
) -> TrainReport {
    train_ranking_with_hook(model, ps, split, layout, sampler, cfg, |_, _| false)
}

/// [`train_ranking`] with an `after_epoch(epoch, ps) -> stop` hook — the
/// harness uses it for validation-based early selection and early stopping
/// (evaluate on the held-out validation events, checkpoint the best epoch,
/// stop when the metric plateaus, restore the best afterwards). Returning
/// `true` ends training after the current epoch.
pub fn train_ranking_with_hook(
    model: &dyn SeqModel,
    ps: &mut ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    sampler: &NegativeSampler,
    cfg: &TrainConfig,
    after_epoch: impl FnMut(usize, &mut ParamStore) -> bool,
) -> TrainReport {
    let mut positions = training_positions(split);
    let start = Instant::now();
    let (epoch_losses, steps) =
        run_epochs(ps, &mut positions, cfg.batch_size, cfg, after_epoch, |g, ps, shard, rng| {
            ranking_shard_loss(model, g, ps, split, layout, sampler, cfg, shard, rng)
        });
    TrainReport { epoch_losses, seconds: start.elapsed().as_secs_f64(), steps, target_offset: 0.0 }
}

/// Trains with the binary log loss (Eq. 24), sampling
/// [`TrainConfig::ctr_negatives`] unobserved items per positive (§IV-D).
pub fn train_ctr(
    model: &dyn SeqModel,
    ps: &mut ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    sampler: &NegativeSampler,
    cfg: &TrainConfig,
) -> TrainReport {
    train_ctr_with_hook(model, ps, split, layout, sampler, cfg, |_, _| false)
}

/// [`train_ctr`] with an `after_epoch(epoch, ps) -> stop` hook (see
/// [`train_ranking_with_hook`]).
pub fn train_ctr_with_hook(
    model: &dyn SeqModel,
    ps: &mut ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    sampler: &NegativeSampler,
    cfg: &TrainConfig,
    after_epoch: impl FnMut(usize, &mut ParamStore) -> bool,
) -> TrainReport {
    let mut positions = training_positions(split);
    let start = Instant::now();
    // keep the *instance* count per batch near batch_size
    let group = 1 + cfg.ctr_negatives;
    let positives_per_batch = (cfg.batch_size / group).max(1);
    let (epoch_losses, steps) = run_epochs(
        ps,
        &mut positions,
        positives_per_batch,
        cfg,
        after_epoch,
        |g, ps, shard, rng| ctr_shard_loss(model, g, ps, split, layout, sampler, cfg, shard, rng),
    );
    TrainReport { epoch_losses, seconds: start.elapsed().as_secs_f64(), steps, target_offset: 0.0 }
}

/// Trains with the squared-error loss (Eq. 26); targets are the observed
/// ratings, no negative sampling.
///
/// Targets are centred on the training-set mean rating (returned as
/// [`TrainReport::target_offset`]) — equivalent to initialising the global
/// bias at the mean, the standard warm start for rating predictors; without
/// it Adam spends hundreds of steps dragging w₀ from 0 to ≈3.5.
pub fn train_rating(
    model: &dyn SeqModel,
    ps: &mut ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    cfg: &TrainConfig,
) -> TrainReport {
    train_rating_with_hook(model, ps, split, layout, cfg, |_, _| false)
}

/// The training-set mean rating: the constant [`train_rating`] centres its
/// targets on and reports as [`TrainReport::target_offset`]. Known before
/// training starts, so a validation hook can de-centre predictions with it.
pub fn rating_offset(split: &LeaveOneOut) -> f32 {
    let (sum, count) = split
        .train
        .iter()
        .flatten()
        .fold((0.0f64, 0usize), |(s, c), e| (s + e.rating as f64, c + 1));
    (sum / count.max(1) as f64) as f32
}

/// [`train_rating`] with an `after_epoch(epoch, ps) -> stop` hook (see
/// [`train_ranking_with_hook`]).
pub fn train_rating_with_hook(
    model: &dyn SeqModel,
    ps: &mut ParamStore,
    split: &LeaveOneOut,
    layout: &FeatureLayout,
    cfg: &TrainConfig,
    after_epoch: impl FnMut(usize, &mut ParamStore) -> bool,
) -> TrainReport {
    let mut positions = training_positions(split);
    let start = Instant::now();
    let offset = rating_offset(split);
    let (epoch_losses, steps) =
        run_epochs(ps, &mut positions, cfg.batch_size, cfg, after_epoch, |g, ps, shard, rng| {
            rating_shard_loss(model, g, ps, split, layout, cfg, offset, shard, rng)
        });
    TrainReport {
        epoch_losses,
        seconds: start.elapsed().as_secs_f64(),
        steps,
        target_offset: offset,
    }
}
