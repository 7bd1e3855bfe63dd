//! Experiment execution: train + evaluate one model on one dataset, with a
//! `seqfm-parallel` scoped pool so a full paper table (8 models × 2
//! datasets) uses the machine's cores.

use crate::args::HarnessArgs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_baselines::registry::{build, ModelKind};
use seqfm_core::{
    evaluate_ctr, evaluate_ctr_on, evaluate_ranking, evaluate_ranking_on, evaluate_rating,
    evaluate_rating_on, train_ctr_with_hook, train_ranking_with_hook, train_rating_with_hook,
    EvalSplit, RankingEvalConfig, SeqModel, TrainConfig,
};
use seqfm_data::{Dataset, FeatureLayout, LeaveOneOut, NegativeSampler};
use seqfm_parallel::ThreadPool;

/// One trained-and-evaluated model's result row.
#[derive(Clone, Debug)]
pub struct ResultRow {
    /// Model display name.
    pub model: String,
    /// Task metrics (ranking: HR@5/10/20 + NDCG@5/10/20; CTR: AUC, RMSE;
    /// rating: MAE, RRSE).
    pub metrics: Vec<f64>,
    /// Training wall-clock seconds.
    pub train_seconds: f64,
}

/// Which of the paper's three tasks to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Next-POI recommendation (Table II).
    Ranking,
    /// CTR prediction (Table III).
    Ctr,
    /// Rating prediction (Table IV).
    Rating,
}

/// Prepared dataset bundle shared by all models.
pub struct Prepared {
    /// The dataset.
    pub ds: Dataset,
    /// Leave-one-out split.
    pub split: LeaveOneOut,
    /// Feature layout.
    pub layout: FeatureLayout,
    /// Negative sampler over unseen items.
    pub sampler: NegativeSampler,
}

impl Prepared {
    /// Splits a dataset and builds its sampler.
    pub fn new(ds: Dataset) -> Self {
        let split = LeaveOneOut::split(&ds);
        let layout = FeatureLayout::of(&ds);
        let seen = (0..ds.n_users).map(|u| split.seen_items(u)).collect();
        let sampler = NegativeSampler::new(ds.n_items, seen);
        Prepared { ds, split, layout, sampler }
    }
}

/// Default epochs per task at small scale (an upper bound — validation-based
/// selection picks the best epoch, mirroring the paper's train-to-
/// convergence protocol; override with `--epochs`).
pub fn default_epochs(task: Task) -> usize {
    match task {
        Task::Ranking => 200,
        Task::Ctr => 120,
        Task::Rating => 150,
    }
}

/// Validation-metric tracker implementing best-epoch selection: evaluates a
/// cheap validation metric every `every` epochs, checkpoints the best
/// parameters, and restores them when training ends. This mirrors the
/// paper's protocol (the validation event exists precisely for tuning,
/// §V-C) and keeps the fixed epoch budget fair across models of very
/// different capacity.
pub struct BestEpoch {
    every: usize,
    /// Consecutive non-improving evaluations tolerated before stopping —
    /// this realises the paper's "iterate until L converges" (§IV-D) with
    /// the validation metric as the convergence monitor.
    patience: usize,
    stale: usize,
    best_metric: f64,
    best_params: Option<bytes::Bytes>,
    /// Epoch index of the best checkpoint (for diagnostics).
    pub best_epoch: usize,
}

impl BestEpoch {
    /// Tracker evaluating every `every` epochs, stopping after 5
    /// non-improving evaluations.
    pub fn new(every: usize) -> Self {
        BestEpoch {
            every,
            patience: 5,
            stale: 0,
            best_metric: f64::NEG_INFINITY,
            best_params: None,
            best_epoch: 0,
        }
    }

    /// Records epoch `epoch` with validation `metric` (higher = better);
    /// returns `true` when training should stop (metric plateaued).
    pub fn observe(&mut self, epoch: usize, total: usize, metric: f64, ps: &ParamStore) -> bool {
        if !epoch.is_multiple_of(self.every) && epoch + 1 != total {
            return false;
        }
        if metric > self.best_metric {
            self.best_metric = metric;
            self.best_epoch = epoch;
            self.best_params = Some(seqfm_nn::checkpoint::save(ps));
            self.stale = 0;
        } else {
            self.stale += 1;
        }
        self.stale >= self.patience
    }

    /// `true` when `epoch` is an evaluation epoch.
    pub fn due(&self, epoch: usize, total: usize) -> bool {
        epoch.is_multiple_of(self.every) || epoch + 1 == total
    }

    /// Restores the best checkpoint into `ps`.
    pub fn restore(&self, ps: &mut ParamStore) {
        if let Some(blob) = &self.best_params {
            seqfm_nn::checkpoint::load(ps, blob).expect("own checkpoint roundtrips");
        }
    }
}

/// Trains `kind` on `prep` with validation-based best-epoch selection and
/// returns its test-set result row.
pub fn run_one(kind: ModelKind, task: Task, prep: &Prepared, args: &HarnessArgs) -> ResultRow {
    let epochs = args.epochs_or(default_epochs(task));
    let tc = TrainConfig {
        epochs,
        batch_size: 128,
        lr: args.lr,
        max_seq: args.max_seq,
        ctr_negatives: 5,
        seed: args.seed,
        ..TrainConfig::default()
    };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC0FFEE);
    let model = build(kind, &mut ps, &mut rng, &prep.layout, args.d, args.max_seq);
    let mut selector = BestEpoch::new(3);

    match task {
        Task::Ranking => {
            let valid_ec = RankingEvalConfig {
                negatives: 50,
                max_seq: args.max_seq,
                batch_size: 256,
                seed: args.seed ^ 0x5A11D,
            };
            let report = {
                let m: &dyn SeqModel = model.as_ref();
                let sel = &mut selector;
                train_ranking_with_hook(
                    m,
                    &mut ps,
                    &prep.split,
                    &prep.layout,
                    &prep.sampler,
                    &tc,
                    |epoch, ps| {
                        if sel.due(epoch, epochs) {
                            let acc = evaluate_ranking_on(
                                m,
                                ps,
                                &prep.split,
                                &prep.layout,
                                &prep.sampler,
                                &valid_ec,
                                EvalSplit::Validation,
                            );
                            sel.observe(epoch, epochs, acc.hr(10), ps)
                        } else {
                            false
                        }
                    },
                )
            };
            selector.restore(&mut ps);
            let ec = RankingEvalConfig {
                negatives: args.negatives,
                max_seq: args.max_seq,
                batch_size: 256,
                seed: args.seed ^ 0xE7A1,
            };
            let acc = evaluate_ranking(
                model.as_ref(),
                &ps,
                &prep.split,
                &prep.layout,
                &prep.sampler,
                &ec,
            );
            ResultRow {
                model: model.name().to_string(),
                metrics: vec![
                    acc.hr(5),
                    acc.hr(10),
                    acc.hr(20),
                    acc.ndcg(5),
                    acc.ndcg(10),
                    acc.ndcg(20),
                ],
                train_seconds: report.seconds,
            }
        }
        Task::Ctr => {
            let report = {
                let m: &dyn SeqModel = model.as_ref();
                let sel = &mut selector;
                train_ctr_with_hook(
                    m,
                    &mut ps,
                    &prep.split,
                    &prep.layout,
                    &prep.sampler,
                    &tc,
                    |epoch, ps| {
                        if sel.due(epoch, epochs) {
                            let ev = evaluate_ctr_on(
                                m,
                                ps,
                                &prep.split,
                                &prep.layout,
                                &prep.sampler,
                                args.max_seq,
                                args.seed ^ 0x5A12D,
                                EvalSplit::Validation,
                            );
                            sel.observe(epoch, epochs, ev.auc, ps)
                        } else {
                            false
                        }
                    },
                )
            };
            selector.restore(&mut ps);
            let ev = evaluate_ctr(
                model.as_ref(),
                &ps,
                &prep.split,
                &prep.layout,
                &prep.sampler,
                args.max_seq,
                args.seed ^ 0xE7A2,
            );
            ResultRow {
                model: model.name().to_string(),
                metrics: vec![ev.auc, ev.rmse],
                train_seconds: report.seconds,
            }
        }
        Task::Rating => {
            let report = {
                let m: &dyn SeqModel = model.as_ref();
                let sel = &mut selector;
                // target_offset is only known after training; the validation
                // hook uses MAE on *centred* predictions with a running
                // offset estimate — the training-set mean is constant, so we
                // compute it the same way the trainer does.
                let offset = {
                    let (sum, count) = prep
                        .split
                        .train
                        .iter()
                        .flatten()
                        .fold((0.0f64, 0usize), |(s, c), e| (s + e.rating as f64, c + 1));
                    (sum / count.max(1) as f64) as f32
                };
                train_rating_with_hook(m, &mut ps, &prep.split, &prep.layout, &tc, |epoch, ps| {
                    if sel.due(epoch, epochs) {
                        let ev = evaluate_rating_on(
                            m,
                            ps,
                            &prep.split,
                            &prep.layout,
                            args.max_seq,
                            offset,
                            EvalSplit::Validation,
                        );
                        sel.observe(epoch, epochs, -ev.mae, ps)
                    } else {
                        false
                    }
                })
            };
            selector.restore(&mut ps);
            let ev = evaluate_rating(
                model.as_ref(),
                &ps,
                &prep.split,
                &prep.layout,
                args.max_seq,
                report.target_offset,
            );
            ResultRow {
                model: model.name().to_string(),
                metrics: vec![ev.mae, ev.rrse],
                train_seconds: report.seconds,
            }
        }
    }
}

/// Runs a list of independent jobs, optionally in parallel over a
/// [`seqfm_parallel::ThreadPool`] scope (workers pull jobs off one queue, so
/// long-running models don't serialise behind each other), preserving job order in the
/// output. A job panic propagates to the caller after every sibling has
/// finished.
pub fn run_jobs<T, F>(n_jobs: usize, serial: bool, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if serial || n_jobs <= 1 {
        return (0..n_jobs).map(job).collect();
    }
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get()).min(n_jobs);
    let pool = ThreadPool::new(workers);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n_jobs, || None);
    pool.scope(|s| {
        for (i, slot) in slots.iter_mut().enumerate() {
            let job = &job;
            s.spawn(move || *slot = Some(job(i)));
        }
    });
    slots.into_iter().map(|t| t.expect("scope completed every job")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_order() {
        let out = run_jobs(16, false, |i| i * 3);
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
        let serial = run_jobs(4, true, |i| i + 1);
        assert_eq!(serial, vec![1, 2, 3, 4]);
    }

    #[test]
    fn best_epoch_selects_peak_and_stops_on_plateau() {
        let mut ps = seqfm_autograd::ParamStore::new();
        let w = ps.add_dense("w", seqfm_tensor::Tensor::vector(vec![0.0]));
        let mut sel = BestEpoch::new(1);
        // rising metric: no stop, checkpoints advance
        for (epoch, metric) in [(0usize, 0.1f64), (1, 0.2), (2, 0.5)] {
            ps.value_mut(w).data_mut()[0] = epoch as f32;
            assert!(!sel.observe(epoch, 100, metric, &ps), "should not stop while improving");
        }
        assert_eq!(sel.best_epoch, 2);
        // plateau: stops after `patience` stale evals
        let mut stopped = false;
        for epoch in 3..20 {
            ps.value_mut(w).data_mut()[0] = epoch as f32;
            if sel.observe(epoch, 100, 0.4, &ps) {
                stopped = true;
                assert_eq!(epoch, 7, "patience of 5 should stop at the 5th stale eval");
                break;
            }
        }
        assert!(stopped, "plateau never triggered early stopping");
        // restore brings back the epoch-2 parameters
        sel.restore(&mut ps);
        assert_eq!(ps.value(w).data(), &[2.0]);
    }

    #[test]
    fn best_epoch_skips_off_schedule_epochs() {
        let ps = seqfm_autograd::ParamStore::new();
        let mut sel = BestEpoch::new(3);
        assert!(sel.due(0, 10));
        assert!(!sel.due(1, 10));
        assert!(!sel.due(2, 10));
        assert!(sel.due(3, 10));
        assert!(sel.due(9, 10), "final epoch always evaluates");
        // observing an off-schedule epoch is a no-op
        assert!(!sel.observe(1, 10, 99.0, &ps));
        assert_eq!(sel.best_epoch, 0);
    }

    #[test]
    fn prepared_builds_consistent_bundle() {
        let cfg = seqfm_data::ranking::RankingConfig {
            name: "t".into(),
            n_users: 10,
            n_items: 30,
            n_clusters: 4,
            min_len: 5,
            max_len: 8,
            p_transition: 0.2,
            p_recent: 0.4,
            drift_every: 8,
            zipf_s: 1.0,
            pref_sharpness: 1.0,
            seed: 1,
        };
        let ds = seqfm_data::ranking::generate(&cfg).unwrap();
        let prep = Prepared::new(ds);
        assert_eq!(prep.split.test.len(), 10);
        assert_eq!(prep.layout.n_items, 30);
    }
}
