//! Experiment execution under one protocol: [`run_one`] trains and
//! evaluates every model of every paper table and figure — split, candidate
//! sets, best-epoch selection and seeds are fixed here once ([`protocol`]
//! states them) — and [`run_jobs`] spreads a table's runs over a
//! `seqfm-parallel` scoped pool so a full paper table (8 models × 2
//! datasets) uses the machine's cores.

use crate::args::HarnessArgs;
use crate::report::{vs, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_baselines::registry::{build, ctr_models, ranking_models, rating_models, ModelKind};
use seqfm_core::{
    evaluate_ctr_on, evaluate_ranking_on, evaluate_rating_on, rating_offset, train_ctr_with_hook,
    train_ranking_with_hook, train_rating_with_hook, EvalSplit, RankingEvalConfig, SeqFm,
    SeqFmConfig, SeqModel, TrainConfig, TrainReport,
};
use seqfm_data::ctr::CtrConfig;
use seqfm_data::ranking::RankingConfig;
use seqfm_data::rating::RatingConfig;
use seqfm_data::{
    ctr, ranking, rating, Dataset, FeatureLayout, LeaveOneOut, NegativeSampler, Scale,
};
use seqfm_parallel::ThreadPool;

/// Selection evaluates the validation metric every this many epochs (and
/// at the last one).
const EVAL_EVERY: usize = 3;
/// Consecutive non-improving validations tolerated before training stops —
/// the paper's "iterate until L converges" (§IV-D) with the validation
/// metric as the convergence monitor.
const PATIENCE: usize = 5;
/// Sampled unseen negatives per validation event (ranking).
const VALID_NEGATIVES: usize = 50;

/// One trained-and-evaluated model's result row.
#[derive(Clone, Debug)]
pub struct ResultRow {
    /// Model display name.
    pub model: String,
    /// Test metrics, named by [`Task::metric_names`].
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

/// The column names of Table V and Fig. 3: every task's two datasets, in
/// Table I order ([`all_datasets`]).
pub const DATASET_COLUMNS: [&str; 6] =
    ["gowalla", "foursquare", "trivago", "taobao", "beauty", "toys"];

impl Task {
    /// The task's two datasets in Table I order, split and ready to train.
    pub fn datasets(self, scale: Scale) -> [Prepared; 2] {
        let sets = match self {
            Task::Ranking => [RankingConfig::gowalla(scale), RankingConfig::foursquare(scale)]
                .map(|c| ranking::generate(&c)),
            Task::Ctr => {
                [CtrConfig::trivago(scale), CtrConfig::taobao(scale)].map(|c| ctr::generate(&c))
            }
            Task::Rating => [RatingConfig::beauty(scale), RatingConfig::toys(scale)]
                .map(|c| rating::generate(&c)),
        };
        sets.map(|ds| Prepared::new(ds.expect("preset valid")))
    }

    /// The models of the task's paper table, in paper order.
    pub fn roster(self) -> Vec<ModelKind> {
        match self {
            Task::Ranking => ranking_models(),
            Task::Ctr => ctr_models(),
            Task::Rating => rating_models(),
        }
    }

    /// Names of a [`ResultRow::metrics`] of this task, in order.
    pub fn metric_names(self) -> &'static [&'static str] {
        match self {
            Task::Ranking => &["HR@5", "HR@10", "HR@20", "NDCG@5", "NDCG@10", "NDCG@20"],
            Task::Ctr => &["AUC", "RMSE"],
            Task::Rating => &["MAE", "RRSE"],
        }
    }

    /// The one metric Table V and Fig. 3 report: HR@10, AUC or MAE.
    pub fn headline(self, metrics: &[f64]) -> f64 {
        metrics[if self == Task::Ranking { 1 } else { 0 }]
    }
}

/// Every task's two datasets, in Table I order.
pub fn all_datasets(scale: Scale) -> Vec<(Task, Prepared)> {
    [Task::Ranking, Task::Ctr, Task::Rating]
        .into_iter()
        .flat_map(|task| task.datasets(scale).map(|prep| (task, prep)))
        .collect()
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
        self.stale >= PATIENCE
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

/// The model a run trains: an entry of a paper table's roster, or SeqFM
/// with an explicit configuration (Table V's variants, Fig. 3's points).
#[derive(Clone, Copy, Debug)]
pub enum ModelSpec {
    /// A roster model, built at `--d` / `--seq` by the registry.
    Roster(ModelKind),
    /// SeqFM with this configuration.
    SeqFm(SeqFmConfig),
}

impl ModelSpec {
    /// Builds the model with fresh parameters in `ps`, drawn from the one
    /// init seed every run shares.
    ///
    /// # Panics
    /// Panics if a SeqFM configuration's window differs from `args.max_seq`,
    /// the window the trainer and the evaluator feed.
    pub fn build(
        self,
        ps: &mut ParamStore,
        layout: &FeatureLayout,
        args: &HarnessArgs,
    ) -> Box<dyn SeqModel> {
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC0FFEE);
        match self {
            ModelSpec::Roster(kind) => build(kind, ps, &mut rng, layout, args.d, args.max_seq),
            ModelSpec::SeqFm(cfg) => {
                assert_eq!(cfg.max_seq, args.max_seq, "SeqFM window must match --seq");
                Box::new(SeqFm::new(ps, &mut rng, layout, cfg))
            }
        }
    }
}

/// The trainer configuration every run shares.
pub fn train_config(task: Task, args: &HarnessArgs) -> TrainConfig {
    TrainConfig {
        epochs: args.epochs_or(default_epochs(task)),
        batch_size: 128,
        lr: args.lr,
        max_seq: args.max_seq,
        ctr_negatives: 5,
        seed: args.seed,
        ..TrainConfig::default()
    }
}

/// The protocol [`run_one`] follows, as the one line each paper binary
/// prints before its first table.
pub fn protocol(args: &HarnessArgs) -> String {
    format!(
        "protocol: leave-one-out next-item split; test candidates 1 positive + J={} sampled \
         unseen negatives (CTR: 1 positive + 1 negative); selection on validation \
         HR@10 / AUC / -MAE ({VALID_NEGATIVES} validation negatives), every {EVAL_EVERY} \
         epochs, patience {PATIENCE}, best checkpoint restored; seed {}",
        args.negatives, args.seed
    )
}

/// Trains `model` on `prep` with validation-based best-epoch selection and
/// returns its test-set result row: the one protocol of every paper table
/// and figure.
pub fn run_one(model: ModelSpec, task: Task, prep: &Prepared, args: &HarnessArgs) -> ResultRow {
    let tc = train_config(task, args);
    let mut ps = ParamStore::new();
    let model = model.build(&mut ps, &prep.layout, args);
    let m: &dyn SeqModel = model.as_ref();
    let mut selector = BestEpoch::new(EVAL_EVERY);
    let report = train(task, m, &mut ps, prep, &tc, |epoch, ps| {
        selector.due(epoch, tc.epochs) && {
            // selection maximises the headline metric: HR@10, AUC or -MAE
            let v = task.headline(&evaluate(task, m, ps, prep, args, EvalSplit::Validation));
            selector.observe(epoch, tc.epochs, if task == Task::Rating { -v } else { v }, ps)
        }
    });
    selector.restore(&mut ps);
    ResultRow {
        model: m.name().to_string(),
        metrics: evaluate(task, m, &ps, prep, args, EvalSplit::Test),
        train_seconds: report.seconds,
    }
}

/// Trains `m` with the task's loss, calling `after_epoch` after every epoch.
fn train(
    task: Task,
    m: &dyn SeqModel,
    ps: &mut ParamStore,
    prep: &Prepared,
    tc: &TrainConfig,
    after_epoch: impl FnMut(usize, &mut ParamStore) -> bool,
) -> TrainReport {
    let (split, layout, sampler) = (&prep.split, &prep.layout, &prep.sampler);
    match task {
        Task::Ranking => train_ranking_with_hook(m, ps, split, layout, sampler, tc, after_epoch),
        Task::Ctr => train_ctr_with_hook(m, ps, split, layout, sampler, tc, after_epoch),
        Task::Rating => train_rating_with_hook(m, ps, split, layout, tc, after_epoch),
    }
}

/// Evaluates `m` on the validation or test events and returns the task's
/// metrics ([`Task::metric_names`]).
fn evaluate(
    task: Task,
    m: &dyn SeqModel,
    ps: &ParamStore,
    prep: &Prepared,
    args: &HarnessArgs,
    on: EvalSplit,
) -> Vec<f64> {
    let (split, layout, sampler) = (&prep.split, &prep.layout, &prep.sampler);
    let test = on == EvalSplit::Test;
    match task {
        Task::Ranking => {
            let ec = RankingEvalConfig {
                negatives: if test { args.negatives } else { VALID_NEGATIVES },
                max_seq: args.max_seq,
                batch_size: 256,
                seed: args.seed ^ if test { 0xE7A1 } else { 0x5A11D },
            };
            let acc = evaluate_ranking_on(m, ps, split, layout, sampler, &ec, on);
            vec![acc.hr(5), acc.hr(10), acc.hr(20), acc.ndcg(5), acc.ndcg(10), acc.ndcg(20)]
        }
        Task::Ctr => {
            let seed = args.seed ^ if test { 0xE7A2 } else { 0x5A12D };
            let ev = evaluate_ctr_on(m, ps, split, layout, sampler, args.max_seq, seed, on);
            vec![ev.auc, ev.rmse]
        }
        Task::Rating => {
            let offset = rating_offset(split);
            let ev = evaluate_rating_on(m, ps, split, layout, args.max_seq, offset, on);
            vec![ev.mae, ev.rrse]
        }
    }
}

/// Regenerates one of Tables II–IV: the task's roster on its two datasets,
/// printed with the paper's value in parentheses (`paper[mi]` holds model
/// `mi`'s rows on the two datasets) and written to
/// `<out>/<file>_<dataset>.tsv`.
pub fn run_table<const N: usize>(
    args: &HarnessArgs,
    task: Task,
    title: &str,
    file: &str,
    paper: &[(&str, [f64; N], [f64; N])],
) {
    let models = task.roster();
    let datasets = task.datasets(args.scale);
    eprintln!("{file}: {} models x {} datasets, d={}", models.len(), datasets.len(), args.d);
    println!("{}", protocol(args));
    let results = run_jobs(datasets.len() * models.len(), args.serial, |j| {
        run_one(
            ModelSpec::Roster(models[j % models.len()]),
            task,
            &datasets[j / models.len()],
            args,
        )
    });
    for (di, (prep, rows)) in datasets.iter().zip(results.chunks(models.len())).enumerate() {
        let mut table = Table::new(
            format!("{title} on {} (measured (paper))", prep.ds.name),
            task.metric_names(),
        );
        for (row, paper_row) in rows.iter().zip(paper) {
            let paper_vals = if di == 0 { &paper_row.1 } else { &paper_row.2 };
            table.row(
                row.model.clone(),
                row.metrics.iter().zip(paper_vals).map(|(&m, &p)| vs(m, p)).collect(),
            );
        }
        print!("{}", table.render());
        table.write_tsv(&args.out_file(&format!("{file}_{}.tsv", prep.ds.name)));
    }
    let total: f64 = results.iter().map(|r| r.train_seconds).sum();
    println!("total training time: {total:.1}s across {} runs", results.len());
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
    fn roster_seqfm_and_its_config_give_one_number() {
        let args =
            HarnessArgs { d: 8, max_seq: 5, epochs: Some(3), negatives: 20, ..Default::default() };
        let cfg = SeqFmConfig {
            d: args.d,
            max_seq: args.max_seq,
            ablation: seqfm_core::Ablation::default(),
            ..Default::default()
        };
        let rk = RankingConfig { n_users: 12, ..RankingConfig::gowalla(Scale::Small) };
        let ct = CtrConfig { n_users: 12, ..CtrConfig::trivago(Scale::Small) };
        let rt = RatingConfig { n_users: 12, ..RatingConfig::beauty(Scale::Small) };
        let sets = [
            (Task::Ranking, ranking::generate(&rk)),
            (Task::Ctr, ctr::generate(&ct)),
            (Task::Rating, rating::generate(&rt)),
        ];
        for (task, ds) in sets {
            let prep = Prepared::new(ds.unwrap());
            let roster = run_one(ModelSpec::Roster(ModelKind::SeqFm), task, &prep, &args);
            let config = run_one(ModelSpec::SeqFm(cfg), task, &prep, &args);
            let bits = |r: &ResultRow| r.metrics.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
            assert_eq!(roster.metrics.len(), task.metric_names().len());
            assert!(roster.metrics.iter().all(|m| m.is_finite()), "{task:?}: {:?}", roster.metrics);
            assert_eq!(bits(&roster), bits(&config), "{task:?}: one setting, two numbers");
        }
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
