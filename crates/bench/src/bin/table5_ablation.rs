//! Regenerates **Table V** — the ablation study (§VI-C): SeqFM variants
//! with one component removed, across all six datasets. Columns follow the
//! paper: HR@10 (Gowalla, Foursquare), AUC (Trivago, Taobao), MAE (Beauty,
//! Toys). With `--extended`, the extension variants of
//! `seqfm_core::Ablation::extension_variants` (padding-masked pooling,
//! per-view FFN — neither is part of the paper's formulation) are appended.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_bench::{paper, run_jobs, vs, HarnessArgs, Prepared, Table, Task};
use seqfm_core::{
    evaluate_ctr, evaluate_ranking, evaluate_rating, train_ctr, train_ranking, train_rating,
    Ablation, RankingEvalConfig, SeqFm, SeqFmConfig, TrainConfig,
};

/// Trains one SeqFM variant on one dataset and returns the paper's Table-V
/// metric for that dataset (HR@10 / AUC / MAE).
fn run_variant(ablation: Ablation, task: Task, prep: &Prepared, args: &HarnessArgs) -> f64 {
    let tc = TrainConfig {
        epochs: args.epochs_or(seqfm_bench::default_epochs(task)),
        batch_size: 128,
        lr: args.lr,
        max_seq: args.max_seq,
        ctr_negatives: 5,
        seed: args.seed,
        ..TrainConfig::default()
    };
    let cfg = SeqFmConfig { d: args.d, max_seq: args.max_seq, ablation, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC0FFEE);
    let model = SeqFm::new(&mut ps, &mut rng, &prep.layout, cfg);
    match task {
        Task::Ranking => {
            train_ranking(&model, &mut ps, &prep.split, &prep.layout, &prep.sampler, &tc);
            let ec = RankingEvalConfig {
                negatives: args.negatives,
                max_seq: args.max_seq,
                batch_size: 256,
                seed: args.seed ^ 0xE7A1,
            };
            evaluate_ranking(&model, &ps, &prep.split, &prep.layout, &prep.sampler, &ec).hr(10)
        }
        Task::Ctr => {
            train_ctr(&model, &mut ps, &prep.split, &prep.layout, &prep.sampler, &tc);
            evaluate_ctr(
                &model,
                &ps,
                &prep.split,
                &prep.layout,
                &prep.sampler,
                args.max_seq,
                args.seed ^ 0xE7A2,
            )
            .auc
        }
        Task::Rating => {
            let report = train_rating(&model, &mut ps, &prep.split, &prep.layout, &tc);
            evaluate_rating(
                &model,
                &ps,
                &prep.split,
                &prep.layout,
                args.max_seq,
                report.target_offset,
            )
            .mae
        }
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let mut variants = Ablation::table5_variants();
    if args.extended {
        variants.extend(Ablation::extension_variants());
    }
    let datasets: Vec<(Task, Prepared)> = seqfm_data::all_presets(args.scale)
        .into_iter()
        .zip([Task::Ranking, Task::Ranking, Task::Ctr, Task::Ctr, Task::Rating, Task::Rating])
        .map(|(ds, task)| (task, Prepared::new(ds)))
        .collect();
    eprintln!("table5: {} variants x {} datasets", variants.len(), datasets.len());

    let jobs: Vec<(usize, usize)> =
        (0..variants.len()).flat_map(|vi| (0..datasets.len()).map(move |di| (vi, di))).collect();
    let results = run_jobs(jobs.len(), args.serial, |j| {
        let (vi, di) = jobs[j];
        let (task, prep) = &datasets[di];
        run_variant(variants[vi].1, *task, prep, &args)
    });

    let mut table = Table::new(
        "Table V — ablation study (measured (paper); HR@10 | AUC | MAE)",
        &["gowalla", "foursquare", "trivago", "taobao", "beauty", "toys"],
    );
    for (vi, (name, _)) in variants.iter().enumerate() {
        let cells: Vec<String> = (0..datasets.len())
            .map(|di| {
                let measured = results[vi * datasets.len() + di];
                match paper::TABLE5.iter().find(|(n, ..)| n == name) {
                    Some((_, hr, auc, mae)) => {
                        let p = match di {
                            0 | 1 => hr[di],
                            2 | 3 => auc[di - 2],
                            _ => mae[di - 4],
                        };
                        vs(measured, p)
                    }
                    None => format!("{measured:.3}"),
                }
            })
            .collect();
        table.row(*name, cells);
    }
    print!("{}", table.render());
    table.write_tsv(args.out.as_deref().unwrap_or("results/table5_ablation.tsv"));
}
