//! Regenerates **Figure 4** — training efficiency and scalability (§VI-D):
//! SeqFM training wall-clock time on the CTR workload (the paper uses
//! Trivago, its largest dataset) at data proportions {0.2, 0.4, 0.6, 0.8,
//! 1.0}, plus a least-squares linearity check mirroring the paper's
//! "approximately linear" conclusion.

use seqfm_autograd::ParamStore;
use seqfm_baselines::registry::ModelKind;
use seqfm_bench::{paper, run_jobs, train_config, HarnessArgs, ModelSpec, Prepared, Table, Task};
use seqfm_core::train_ctr;
use seqfm_data::ctr::{generate, CtrConfig};

fn main() {
    let args = HarnessArgs::parse();
    let full = generate(&CtrConfig::trivago(args.scale)).expect("preset valid");
    eprintln!("fig4: trivago-sim with {} instances", full.n_instances());

    let proportions = paper::FIG4_PROPORTIONS;
    // Serial by default: wall-clock timing is the measurement, so parallel
    // execution would contaminate it unless explicitly requested.
    let results = run_jobs(proportions.len(), true, |i| {
        let ds = full.subset(proportions[i]);
        let prep = Prepared::new(ds);
        // The shared trainer config and init seed, but a fixed epoch budget:
        // early stopping would break the time-vs-data-size measurement.
        let mut ps = ParamStore::new();
        let model = ModelSpec::Roster(ModelKind::SeqFm).build(&mut ps, &prep.layout, &args);
        let tc = train_config(Task::Ctr, &args);
        let report =
            train_ctr(model.as_ref(), &mut ps, &prep.split, &prep.layout, &prep.sampler, &tc);
        (prep.ds.n_instances(), report.seconds)
    });

    let mut table = Table::new(
        "Fig. 4 — SeqFM training time vs data proportion (trivago-sim)",
        &["instances", "seconds", "paper seconds"],
    );
    for (i, &p) in proportions.iter().enumerate() {
        let (instances, seconds) = results[i];
        table.row(
            format!("{p:.1}"),
            vec![
                instances.to_string(),
                format!("{seconds:.2}"),
                format!("{:.0}", paper::FIG4_SECONDS[i]),
            ],
        );
    }
    print!("{}", table.render());
    table.write_tsv(&args.out_file("fig4_scalability.tsv"));

    // Linearity check: R² of seconds ~ proportion.
    let xs = proportions;
    let ys: Vec<f64> = results.iter().map(|&(_, s)| s).collect();
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|&x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let ss_res: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(&x, &y)| {
            let fit = my + slope * (x - mx);
            (y - fit) * (y - fit)
        })
        .sum();
    let ss_tot: f64 = ys.iter().map(|&y| (y - my) * (y - my)).sum();
    let r2 = 1.0 - ss_res / ss_tot.max(1e-12);
    println!(
        "linear fit: {slope:.3} s per unit proportion, R² = {r2:.4} \
         (paper: \"the dependency of training time on the data scale is approximately linear\")"
    );
}
