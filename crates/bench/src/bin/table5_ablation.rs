//! Regenerates **Table V** — the ablation study (§VI-C): SeqFM variants
//! with one component removed, across all six datasets, each trained and
//! evaluated by `run_one` (so the Default row is the SeqFM row of Tables
//! II–IV). Columns follow the paper: HR@10 (Gowalla, Foursquare), AUC
//! (Trivago, Taobao), MAE (Beauty, Toys), each cell beside the paper's.

use seqfm_bench::{
    all_datasets, paper, protocol, run_jobs, run_one, vs, HarnessArgs, ModelSpec, Table,
    DATASET_COLUMNS,
};
use seqfm_core::{Ablation, SeqFmConfig};

fn main() {
    let args = HarnessArgs::parse();
    let variants = Ablation::table5_variants();
    let datasets = all_datasets(args.scale);
    eprintln!("table5: {} variants x {} datasets", variants.len(), datasets.len());
    println!("{}", protocol(&args));

    let results = run_jobs(variants.len() * datasets.len(), args.serial, |j| {
        let ablation = variants[j / datasets.len()].1;
        let (task, prep) = &datasets[j % datasets.len()];
        let cfg = SeqFmConfig { d: args.d, max_seq: args.max_seq, ablation, ..Default::default() };
        task.headline(&run_one(ModelSpec::SeqFm(cfg), *task, prep, &args).metrics)
    });

    let mut table = Table::new(
        "Table V — ablation study (measured (paper); HR@10 | AUC | MAE)",
        &DATASET_COLUMNS,
    );
    for ((name, _), measured) in variants.iter().zip(results.chunks(datasets.len())) {
        let (_, hr, auc, mae) = paper::TABLE5
            .iter()
            .find(|(n, ..)| n == name)
            .expect("every Table V variant has a paper row");
        let cells: Vec<String> = measured
            .iter()
            .enumerate()
            .map(|(di, &measured)| vs(measured, [hr, auc, mae][di / 2][di % 2]))
            .collect();
        table.row(*name, cells);
    }
    print!("{}", table.render());
    table.write_tsv(&args.out_file("table5_ablation.tsv"));
}
