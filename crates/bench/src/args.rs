//! Minimal hand-rolled CLI parsing shared by all harness binaries
//! (no argument-parser crate is available offline).

use seqfm_data::Scale;

/// Options understood by every experiment binary.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Dataset scale (`--scale small|paper`).
    pub scale: Scale,
    /// Embedding width (`--d N`; default 32, paper uses 64).
    pub d: usize,
    /// Override training epochs for all tasks (`--epochs N`).
    pub epochs: Option<usize>,
    /// Adam learning rate (`--lr F`).
    pub lr: f32,
    /// Ranking-eval negatives J (`--negatives N`; paper uses 1000).
    pub negatives: usize,
    /// Maximum dynamic sequence length n˙ (`--seq N`).
    pub max_seq: usize,
    /// Quick mode: halve epochs, J=100 (`--quick`).
    pub quick: bool,
    /// Disable parallel model execution (`--serial`).
    pub serial: bool,
    /// TSV output directory (`--out DIR`; default `results`): each binary
    /// writes its fixed file names under it ([`HarnessArgs::out_file`]).
    pub out: String,
    /// Master seed (`--seed N`).
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: Scale::Small,
            d: 32,
            epochs: None,
            lr: 5e-3,
            negatives: 200,
            max_seq: 20,
            quick: false,
            serial: false,
            out: "results".into(),
            seed: 42,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`, exiting with usage text on error or
    /// `--help`.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("{USAGE}");
                std::process::exit(if msg == "help" { 0 } else { 2 });
            }
        }
    }

    /// Parses an explicit argument list (unit-testable).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match arg.as_str() {
                "--scale" => {
                    out.scale = match value("--scale")?.as_str() {
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale `{other}`")),
                    }
                }
                "--d" => out.d = parse_num(&value("--d")?, "--d")?,
                "--epochs" => out.epochs = Some(parse_num(&value("--epochs")?, "--epochs")?),
                "--lr" => {
                    out.lr = value("--lr")?.parse().map_err(|_| "invalid --lr".to_string())?
                }
                "--negatives" => out.negatives = parse_num(&value("--negatives")?, "--negatives")?,
                "--seq" => out.max_seq = parse_num(&value("--seq")?, "--seq")?,
                "--seed" => out.seed = parse_num(&value("--seed")?, "--seed")? as u64,
                "--out" => out.out = value("--out")?,
                "--quick" => out.quick = true,
                "--serial" => out.serial = true,
                "--help" | "-h" => return Err("help".into()),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if out.quick {
            out.negatives = out.negatives.min(100);
        }
        Ok(out)
    }

    /// Path of the output file `name` under the `--out` directory.
    pub fn out_file(&self, name: &str) -> String {
        format!("{}/{name}", self.out)
    }

    /// Effective epoch count for a task default.
    pub fn epochs_or(&self, default: usize) -> usize {
        let e = self.epochs.unwrap_or(default);
        if self.quick {
            (e / 2).max(2)
        } else {
            e
        }
    }
}

fn parse_num(s: &str, name: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("invalid number for {name}: `{s}`"))
}

const USAGE: &str = "\
usage: <binary> [options]
  --scale small|paper   dataset scale (default small)
  --d N                 embedding width (default 32)
  --epochs N            override training epochs
  --lr F                Adam learning rate (default 0.005)
  --negatives N         ranking-eval negatives J (default 200)
  --seq N               max dynamic sequence length (default 20)
  --seed N              master seed (default 42)
  --quick               halve epochs, cap J at 100
  --serial              disable parallel execution
  --out DIR             TSV output directory (default results)";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.d, 32);
        assert_eq!(a.scale, Scale::Small);
        let a = parse(&["--scale", "paper", "--d", "64", "--epochs", "3", "--lr", "0.01"]).unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.d, 64);
        assert_eq!(a.epochs, Some(3));
        assert!((a.lr - 0.01).abs() < 1e-9);
    }

    #[test]
    fn quick_mode_caps_negatives_and_halves_epochs() {
        let a = parse(&["--quick", "--negatives", "500"]).unwrap();
        assert_eq!(a.negatives, 100);
        assert_eq!(a.epochs_or(20), 10);
        let b = parse(&[]).unwrap();
        assert_eq!(b.epochs_or(20), 20);
    }

    #[test]
    fn out_names_a_directory_for_every_file() {
        assert_eq!(
            parse(&[]).unwrap().out_file("table5_ablation.tsv"),
            "results/table5_ablation.tsv"
        );
        let a = parse(&["--out", "runs/a"]).unwrap();
        assert_eq!(a.out_file("table2_gowalla-sim.tsv"), "runs/a/table2_gowalla-sim.tsv");
        assert_eq!(a.out_file("table2_foursquare-sim.tsv"), "runs/a/table2_foursquare-sim.tsv");
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--d"]).is_err());
        assert!(parse(&["--scale", "huge"]).is_err());
    }
}
