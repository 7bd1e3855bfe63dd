//! Regenerates **Table I** — statistics of the six datasets.
//!
//! Prints `#Instance / #User / #Object / #Feature(Sparse)` for every
//! synthetic preset next to the paper's values for the corresponding public
//! dataset, making the scale reduction explicit.

use seqfm_bench::{HarnessArgs, Table};
use seqfm_data::all_presets;

/// Paper Table I values: (dataset, instances, users, objects, features).
const PAPER: &[(&str, usize, usize, usize, usize)] = &[
    ("Gowalla", 1_865_119, 34_796, 57_445, 149_686),
    ("Foursquare", 1_196_248, 24_941, 28_593, 82_127),
    ("Trivago", 2_810_584, 12_790, 45_195, 103_180),
    ("Taobao", 1_970_133, 37_398, 65_474, 168_346),
    ("Beauty", 198_503, 22_363, 12_101, 46_565),
    ("Toys", 167_597, 19_412, 11_924, 50_748),
];

fn main() {
    let args = HarnessArgs::parse();
    let sets = all_presets(args.scale);
    let mut table = Table::new(
        format!(
            "Table I — dataset statistics (scale: {:?}; paper values in parentheses)",
            args.scale
        ),
        &["#Instance", "#User", "#Object", "#Feature(Sparse)"],
    );
    for (ds, paper) in sets.iter().zip(PAPER) {
        let s = ds.stats();
        table.row(
            s.name.clone(),
            vec![
                format!("{} ({})", s.instances, paper.1),
                format!("{} ({})", s.users, paper.2),
                format!("{} ({})", s.objects, paper.3),
                format!("{} ({})", s.sparse_features, paper.4),
            ],
        );
    }
    print!("{}", table.render());
    table.write_tsv(&args.out_file("table1_stats.tsv"));
}
