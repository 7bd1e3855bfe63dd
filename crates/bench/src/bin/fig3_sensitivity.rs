//! Regenerates **Figure 3** — hyperparameter sensitivity of SeqFM: one-
//! factor-at-a-time sweeps of the latent dimension `d`, FFN depth `l`,
//! maximum sequence length `n˙`, and dropout ratio `ρ` around the standard
//! setting, reporting HR@10 (ranking), AUC (CTR), and MAE (regression) on
//! all six datasets — the same panels as the paper's Fig. 3. Every point is
//! trained and evaluated by `run_one`, so the standard setting's row is the
//! SeqFM row of Tables II–IV.

use seqfm_bench::{
    all_datasets, paper::fig3, protocol, run_jobs, run_one, HarnessArgs, ModelSpec, Table,
    DATASET_COLUMNS,
};
use seqfm_core::SeqFmConfig;

fn main() {
    let args = HarnessArgs::parse();
    // Standard setting (paper: {d=64, l=1, n˙=20, ρ=0.6}; d and n˙ follow
    // --d and --seq).
    let base = SeqFmConfig { d: args.d, max_seq: args.max_seq, ..Default::default() };
    let sweeps: [(&str, Vec<SeqFmConfig>); 4] = [
        ("d", fig3::D.iter().map(|&d| SeqFmConfig { d, ..base }).collect()),
        ("l", fig3::L.iter().map(|&layers| SeqFmConfig { layers, ..base }).collect()),
        ("n_seq", fig3::N_SEQ.iter().map(|&max_seq| SeqFmConfig { max_seq, ..base }).collect()),
        ("rho", fig3::RHO.iter().map(|&dropout| SeqFmConfig { dropout, ..base }).collect()),
    ];
    // The standard setting sits in every sweep: train each distinct point once.
    let mut points: Vec<SeqFmConfig> = Vec::new();
    for p in sweeps.iter().flat_map(|(_, sweep)| sweep) {
        if !points.contains(p) {
            points.push(*p);
        }
    }
    let datasets = all_datasets(args.scale);
    let jobs = points.len() * datasets.len();
    eprintln!("fig3: {jobs} jobs ({} points x {} datasets)", points.len(), datasets.len());
    println!("{}", protocol(&args));
    let results = run_jobs(jobs, args.serial, |j| {
        let p = points[j / datasets.len()];
        let (task, prep) = &datasets[j % datasets.len()];
        let args = HarnessArgs { d: p.d, max_seq: p.max_seq, ..args.clone() };
        task.headline(&run_one(ModelSpec::SeqFm(p), *task, prep, &args).metrics)
    });

    for (param, sweep) in &sweeps {
        let mut table = Table::new(
            format!("Fig. 3 — SeqFM sensitivity to {param} (HR@10 | AUC | MAE)"),
            &DATASET_COLUMNS,
        );
        for p in sweep {
            let label = match *param {
                "d" => format!("d={}", p.d),
                "l" => format!("l={}", p.layers),
                "n_seq" => format!("n˙={}", p.max_seq),
                _ => format!("ρ={}", p.dropout),
            };
            let pi = points.iter().position(|q| q == p).expect("every point ran");
            table.row_f64(label, &results[pi * datasets.len()..][..datasets.len()]);
        }
        print!("{}", table.render());
        table.write_tsv(&args.out_file(&format!("fig3_{param}.tsv")));
    }
}
