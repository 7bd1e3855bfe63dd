//! Table rendering and TSV persistence for the harness binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A rendered experiment table: header + rows of (label, cells).
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "cell count mismatch");
        self.rows.push((label.into(), cells));
    }

    /// Appends a row of numeric cells formatted to 3 decimals.
    pub fn row_f64(&mut self, label: impl Into<String>, values: &[f64]) {
        self.row(label, values.iter().map(|v| format!("{v:.3}")).collect());
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let label_w =
            self.rows.iter().map(|(l, _)| l.len()).chain(std::iter::once(5)).max().unwrap_or(5) + 2;
        let col_ws: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|(_, cells)| cells[i].len())
                    .chain(std::iter::once(c.len()))
                    .max()
                    .unwrap_or(c.len())
                    + 2
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:<label_w$}", "model");
        for (c, w) in self.columns.iter().zip(&col_ws) {
            let _ = write!(out, "{c:>w$}");
        }
        let _ = writeln!(out);
        let total: usize = label_w + col_ws.iter().sum::<usize>();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:<label_w$}");
            for (c, w) in cells.iter().zip(&col_ws) {
                let _ = write!(out, "{c:>w$}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialises as TSV (machine-readable companion output).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "model\t{}", self.columns.join("\t"));
        for (label, cells) in &self.rows {
            let _ = writeln!(out, "{label}\t{}", cells.join("\t"));
        }
        out
    }

    /// Writes the TSV to `path`, creating its directory on demand.
    ///
    /// # Panics
    /// Panics on IO errors (harness binaries have no recovery path).
    pub fn write_tsv(&self, path: &str) {
        let p = Path::new(path);
        if let Some(dir) = p.parent() {
            fs::create_dir_all(dir).expect("create results dir");
        }
        fs::write(p, self.to_tsv()).expect("write tsv");
        println!("wrote {path}");
    }
}

/// Formats a measured-vs-paper cell as `measured (paper)`.
pub fn vs(measured: f64, paper: f64) -> String {
    format!("{measured:.3} ({paper:.3})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_tsv_roundtrips() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row_f64("model-x", &[0.12345, 1.0]);
        t.row("model-y", vec!["0.5 (0.4)".into(), "ok".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("0.123"));
        let tsv = t.to_tsv();
        let mut lines = tsv.lines();
        assert_eq!(lines.next().unwrap(), "model\ta\tb");
        assert_eq!(lines.next().unwrap(), "model-x\t0.123\t1.000");
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row("x", vec!["1".into()]);
    }

    #[test]
    fn vs_formats_pairs() {
        assert_eq!(vs(0.5, 0.25), "0.500 (0.250)");
    }
}
